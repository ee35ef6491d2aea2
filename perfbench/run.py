"""ppav benchmark: four CLI workloads, end-to-end metrics, per-layer traces.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

runs one workload from the root of a checkout and prints, as its last
line, one JSON object with `correct`, `attempted`, `failed` and `metrics`.
With `--trace 0` the metrics are the end-to-end ones; with `--trace 1`
they are the per-layer ones from a traced run.  Without arguments it runs
every workload on seeds 1 and 2 with tracing off.

Inputs come from `workloads.generate(name, seed)`.  Each pass over them
runs in a fresh worker interpreter (`worker.py`), which calls
`ppav.cli.main` in-process for each op.  Every op's output is checked by the
workload's oracle outside the timed region, and every pass must repeat the
first pass byte for byte.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from math import ceil
from pathlib import Path
from time import perf_counter

import reference
import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SETUP_PER_PASS = 2  # set-up launches before each untraced pass
SETUP_MIN = 9
RUN_LIMIT_S = 170  # the whole run, set-up included, must end within 180 s

# Every workload reports these.  A 95th percentile is printed, not listed,
# and only where one pass has enough ops for ten samples beyond it.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "op_ms_p50": "ms",
    "peak_rss_mb": "MB",
}
P95_MIN_OPS = 200

# per-layer metrics read off single spans: (span, statistic)
_SPAN_METRICS = [
    ("weil.isogeny_class", "ms"), ("weil.isogeny_class", "self_ms"),
    ("weil.isogeny_class", "calls"),
    ("arith.real_roots", "ms"), ("arith.real_roots", "calls"),
    ("arith.refine_root", "ms"),
    ("arith.sturm_chain", "ms"), ("arith.sturm_chain", "calls"),
    ("orders.FieldContext", "ms"), ("orders.FieldContext", "calls"),
    ("orders.minimal_order", "ms"),
    ("orders.convenient_certificate", "ms"), ("orders.convenient_certificate", "self_ms"),
    ("orders.is_gorenstein", "ms"), ("orders.is_gorenstein", "calls"),
    ("arith.lattice_hnf", "ms"), ("arith.lattice_hnf", "calls"),
    ("arith.mat_inverse", "ms"), ("arith.mat_inverse", "calls"),
    ("quadratic.class_number_imaginary", "ms"),
    ("quadratic.class_number_imaginary", "calls"),
    ("arith.factorize", "ms"), ("arith.factorize", "calls"),
    ("arith.is_prime", "calls"),
    ("arith._pollard_brent", "calls"),
    ("quadratic.factor_element_ideal", "ms"),
    ("quadratic.fundamental_unit", "ms"),
    ("strata.analyze", "ms"), ("strata.analyze", "self_ms"),
    ("strata.example_family", "self_ms"),
    ("arith.resultant", "ms"),
    ("census.enumerate_ec", "ms"), ("census.enumerate_ec", "self_ms"),
    ("census.summarize", "ms"),
    ("census.write_census_csv", "ms"),
    ("cli.main", "ms"), ("cli.main", "self_ms"),
]
_UNITS = {"ms": "ms", "self_ms": "ms", "calls": "count"}

PER_LAYER = {f"{span}.{stat}": _UNITS[stat] for span, stat in _SPAN_METRICS}
PER_LAYER.update(
    {
        "orders.lattice.den_bits_max": "bits",
        "quadratic.class_number_imaginary.disc_bits_sum": "bits",
        "arith.is_prime.calls_per_factorize": "ratio",
    }
)
for _layer in tracer.LAYERS:
    PER_LAYER[f"layer.{_layer}.ms"] = "ms"
    PER_LAYER[f"layer.{_layer}.self_ms"] = "ms"
PER_LAYER.update(
    {"trace.wall_s": "s", "trace.overhead_ratio": "ratio", "trace.self_coverage": "ratio"}
)

# the layers a workload is built to stress; arith is the kernel they share
PIPELINE_LAYERS = ("weil", "orders", "quadratic")


def percentile(values, share):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, ceil(share * len(ordered)) - 1)]


def clean_env():
    env = dict(os.environ)
    env.pop("PPAV_THREADS", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def check_import(env):
    """Fails unless a fresh interpreter imports the checkout's ppav.

    The launch also writes the bytecode, which users pay once."""
    expected = str((ROOT / "src" / "ppav" / "__init__.py").resolve())
    probe = subprocess.run(
        [sys.executable, "-s", "-c", "import ppav.cli, os; print(os.path.realpath(ppav.__file__))"],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=60,
    )
    if probe.returncode != 0 or probe.stdout.strip() != expected:
        raise RuntimeError(f"set-up launch imported the wrong ppav: {probe.stdout}{probe.stderr}")


def time_setup(env):
    """(seconds, seconds at the reference speed) for one fresh interpreter
    to import ppav.cli."""
    launch = subprocess.run(
        [sys.executable, "-s", str(HERE / "launch.py")],
        env=env, cwd=ROOT, capture_output=True, text=True, check=True, timeout=60,
    )
    seconds, slices, spent = json.loads(launch.stdout)
    return seconds, reference.scale(seconds, slices, spent)


def run_worker(job, env, timeout):
    proc = subprocess.run(
        [sys.executable, "-s", str(HERE / "worker.py")],
        input=json.dumps(job), env=env, cwd=ROOT,
        capture_output=True, text=True, timeout=timeout,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout)


def judge(name, ops, passes):
    """(attempted, failed, messages) over every op of every pass."""
    first = passes[0]
    verdicts = []
    for op, record, output in zip(ops, first["ops"], first["outputs"]):
        verdicts.append(workloads.check(name, op, output) if record["code"] == 0 else None)
    attempted = failed = 0
    messages = []
    for k, entry in enumerate(passes):
        for i, record in enumerate(entry["ops"]):
            attempted += 1
            if record["code"] != 0:
                problem = f"exit {record['code']}: {record['stderr'].strip()}"
            elif verdicts[i]:
                problem = verdicts[i]
            elif record["digest"] != first["ops"][i]["digest"]:
                problem = "output differs from the first pass"
            else:
                continue
            failed += 1
            messages.append(f"pass {k} op {i} {' '.join(ops[i])}: {problem}")
    return attempted, failed, messages


# Times are reported at the reference speed (`reference.py`).  Each pass
# is scaled by the slices that ran beside it, each op by the slices inside
# it and its nearest neighbours, and each set-up launch by the slices that
# ran in it.  Within a run, the median over passes, ops and launches is
# taken; the unscaled times are printed too.

OP_WINDOW_SLICES = 10  # slices that scale one op's latency, at least


def speed(entry):
    """Reference seconds per second of one pass."""
    return reference.scale(1.0, entry["ref_slices"], entry["ref_s"])


def scaled_ops(entry):
    """Each op's latency in ms in one pass, at the reference speed."""
    ops = entry["ops"]
    latencies = []
    for i, op in enumerate(ops):
        lo, hi = i, i + 1
        while sum(o["ref_slices"] for o in ops[lo:hi]) < OP_WINDOW_SLICES:
            if lo == 0 and hi == len(ops):
                window = entry
                break
            lo, hi = max(lo - 1, 0), min(hi + 1, len(ops))
        else:
            window = {
                "ref_slices": sum(o["ref_slices"] for o in ops[lo:hi]),
                "ref_s": sum(o["ref_s"] for o in ops[lo:hi]),
            }
        latencies.append(op["ms"] * speed(window))
    return latencies


def op_latencies(passes):
    """Each op's latency in ms: its median over the passes."""
    return [statistics.median(runs) for runs in zip(*map(scaled_ops, passes))]


def end_to_end(results, setup_times):
    passes = [r["pass"] for r in results]
    return {
        "setup_s": statistics.median(scaled for _, scaled in setup_times),
        "wall_s": statistics.median(p["wall_s"] * speed(p) for p in passes),
        "op_ms_p50": statistics.median(op_latencies(passes)),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in results),
    }


def raw_end_to_end(results, setup_times):
    """The end-to-end times as the clock read them, unscaled."""
    passes = [r["pass"] for r in results]
    return {
        "setup_s": statistics.median(raw for raw, _ in setup_times),
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "op_ms_p50": statistics.median(
            statistics.median(runs) for runs in zip(*([o["ms"] for o in p["ops"]] for p in passes))
        ),
    }


def per_layer(untraced, traced):
    trace = tracer.merge([r["trace"] for r in traced])
    stats = trace["stats"]
    traced_walls = [r["pass"]["wall_s"] for r in traced]
    passes = len(traced)
    values = {}
    for span, statistic in _SPAN_METRICS:
        calls, total, self_time = stats.get(span, (0, 0.0, 0.0))
        per_pass = {"ms": total * 1e3, "self_ms": self_time * 1e3, "calls": calls}
        values[f"{span}.{statistic}"] = per_pass[statistic] / passes
    factorize_calls = stats.get("arith.factorize", (0,))[0]
    values["orders.lattice.den_bits_max"] = trace["den_bits_max"]
    values["quadratic.class_number_imaginary.disc_bits_sum"] = trace["disc_bits"] / passes
    values["arith.is_prime.calls_per_factorize"] = (
        trace["is_prime_in_factorize"] / factorize_calls if factorize_calls else 0.0
    )
    for layer in tracer.LAYERS:
        values[f"layer.{layer}.ms"] = trace["layer_total"].get(layer, 0.0) * 1e3 / passes
        values[f"layer.{layer}.self_ms"] = (
            sum(s[2] for name, s in stats.items() if name.split(".")[0] == layer) * 1e3 / passes
        )
    values["trace.wall_s"] = min(traced_walls)
    values["trace.overhead_ratio"] = min(traced_walls) / min(r["pass"]["wall_s"] for r in untraced)
    values["trace.self_coverage"] = sum(s[2] for s in stats.values()) / sum(traced_walls)
    return values


def run_passes(ops, env, tmp, seconds, trace, started):
    """(untraced results, traced results, set-up times) of one run.

    Passes repeat until the next one would overrun `seconds`.  With tracing
    on, untraced and traced passes alternate, so both see the host alike;
    with tracing off, set-up launches run before each pass.
    """
    untraced, traced, setup_times = [], [], []
    begin = perf_counter()
    last = 0.0
    while (not untraced or (trace and not traced)
           or perf_counter() - begin + last <= seconds):
        lap = perf_counter()
        if not trace:
            setup_times += [time_setup(env) for _ in range(SETUP_PER_PASS)]
        traced_pass = trace and len(traced) < len(untraced)
        job = {"root": str(ROOT), "tmp": str(tmp), "ops": ops, "trace": traced_pass,
               "sample": not trace,
               "keep_outputs": not untraced}
        result = run_worker(job, env, RUN_LIMIT_S - (perf_counter() - started))
        (traced if traced_pass else untraced).append(result)
        last = perf_counter() - lap
    while not trace and len(setup_times) < SETUP_MIN:
        setup_times.append(time_setup(env))
    return untraced, traced, setup_times


def run_one(name, seed, seconds, trace, size="full"):
    """Runs one workload; returns (report lines, result object)."""
    started = perf_counter()
    ops = workloads.generate(name, seed, size)
    env = clean_env()
    check_import(env)
    tmp = ROOT / ".perfbench_tmp" / f"{os.getpid()}-{name}-{seed}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        untraced, traced, setup_times = run_passes(ops, env, tmp, seconds, trace, started)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(OSError):  # another run may still use it
            tmp.parent.rmdir()
    passes = [r["pass"] for r in untraced + traced]
    attempted, failed, messages = judge(name, ops, passes)
    if trace:
        values, units = per_layer(untraced, traced), PER_LAYER
    else:
        values, units = end_to_end(untraced, setup_times), END_TO_END
    lines = [f"# {name} seed={seed} trace={trace} ppav={untraced[0]['ppav_file']}"]
    lines += [f"error: {m}" for m in messages[:20]]
    lines.append(
        f"inputs_sha256 {workloads.digest(ops)} "
        f"output_sha256 {workloads.digest(passes[0]['outputs'])}"
    )
    lines.append(
        f"passes {len(passes)} ops {attempted} "
        f"error_rate {failed / attempted:g} ({failed}/{attempted})"
    )
    if not trace:
        lines.append(f"setup launches {len(setup_times)}")
        raw = raw_end_to_end(untraced, setup_times)
        lines.append("unscaled " + " ".join(f"{m} {v:.6g} {END_TO_END[m]}" for m, v in raw.items()))
        if len(ops) >= P95_MIN_OPS:
            p95 = percentile(op_latencies(passes), 0.95)
            lines.append(f"op_ms_p95 {p95:.6g} ms over {len(ops)} ops")
    else:
        shares = {layer: values[f"layer.{layer}.ms"] for layer in PIPELINE_LAYERS}
        top = max(shares, key=shares.get)
        lines.append(
            f"dominant layer {top} ({values[f'layer.{top}.ms']:.1f} ms of "
            f"{values['cli.main.ms']:.1f} ms in cli.main per traced pass)"
        )
    lines += [f"{metric} {values[metric]:.6g} {unit}" for metric, unit in units.items()]
    payload = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": values[m], "unit": u} for m, u in units.items()},
    }
    return lines, payload


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=("all",) + workloads.NAMES)
    parser.add_argument("--seed", type=int, nargs="+", default=[1, 2])
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "ppav" / "cli.py").is_file():
        print(f"error: no ppav package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    all_correct = True
    for name in names:
        for seed in args.seed:
            lines, payload = run_one(name, seed, args.seconds, args.trace)
            all_correct &= payload["correct"]
            print("\n".join(lines))
            print(json.dumps(payload), flush=True)
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
