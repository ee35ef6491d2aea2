"""Runs one pass of a workload in a fresh interpreter.

Reads a JSON job from standard input and writes one JSON result to
standard output.  Each op calls `ppav.cli.main` in-process, with its
standard output captured and `--threads 1`, as one closed-loop client: the
next op starts when the previous one returns.  Every pass gets an
interpreter of its own, so every pass pays for the tables and caches the
package builds on first use, as a user's command does.  With `sample` set,
slices of the reference kernel measure the host's speed beside the ops
(`reference.py`); with `trace` set, the pass runs under `tracer.Tracer`.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
from pathlib import Path
from time import perf_counter

import reference
import workloads


def fail(message):
    print(f"worker: {message}", file=sys.stderr)
    sys.exit(3)


def import_ppav(root):
    src = root / "src"
    sys.path.insert(0, str(src))
    import ppav
    import ppav.cli

    # a stale installed copy must not stand in for the checkout's package
    expected = (src / "ppav" / "__init__.py").resolve()
    if Path(ppav.__file__).resolve() != expected:
        fail(f"imported ppav from {ppav.__file__}, expected {expected}")
    return ppav


def run_op(ppav, argv):
    """(start, end, exit code or error text, stdout, stderr) of one op."""
    out, err = io.StringIO(), io.StringIO()
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = ppav.cli.main(["--threads", "1", *argv])
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # a crash is a failed op, not a crashed benchmark
        code = repr(exc)
    end = perf_counter()
    return start, end, code, out.getvalue(), err.getvalue()


def run_pass(ppav, ops, tmp, sample):
    """(results, sampler) of one timed pass over the ops.

    With `sample`, reference slices run beside the ops, and the time they
    took inside an op is taken out of its time.  Outputs are read after
    the last op."""
    sampler = reference.Sampler()
    records = []
    with sampler if sample else contextlib.nullcontext():
        for i, op in enumerate(ops):
            argv = [arg.replace("{out}", str(tmp / f"op{i}.csv")) for arg in op]
            first = len(sampler.spans)
            start, end, *rest = run_op(ppav, argv)
            slices, inside = sampler.inside(start, end, first)
            records.append(((end - start - inside) * 1e3, slices, inside, *rest))
    results = []
    for i, (ms, slices, inside, code, stdout, stderr) in enumerate(records):
        output = {"stdout": stdout}
        csv_path = tmp / f"op{i}.csv"
        if "{out}" in " ".join(ops[i]) and code == 0:
            output["csv"] = csv_path.read_text()
            output["summary"] = Path(str(csv_path) + ".summary.json").read_text()
        results.append({"ms": ms, "ref_slices": slices, "ref_s": inside, "code": code,
                        "stderr": stderr[-500:], "output": output})
    return results, sampler


def main():
    job = json.load(sys.stdin)
    ppav = import_ppav(Path(job["root"]))
    spans = None
    if job["trace"]:
        import tracer

        spans = tracer.Tracer()
        spans.install(ppav)
    results, sampler = run_pass(ppav, job["ops"], Path(job["tmp"]), job["sample"])
    entry = {"wall_s": sum(r["ms"] for r in results) / 1e3,
             "ref_slices": sampler.slices, "ref_s": sampler.spent, "ops": []}
    for r in results:
        entry["ops"].append(
            {"ms": r["ms"], "ref_slices": r["ref_slices"], "ref_s": r["ref_s"],
             "code": r["code"], "stderr": r["stderr"],
             "digest": workloads.digest(r["output"])}
        )
    if job["keep_outputs"]:
        entry["outputs"] = [r["output"] for r in results]
    result = {
        "ppav_file": ppav.__file__,
        "pass": entry,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "trace": spans.snapshot() if spans else None,
    }
    json.dump(result, sys.stdout)


if __name__ == "__main__":
    main()
