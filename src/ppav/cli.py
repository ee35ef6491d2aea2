"""Command-line interface.

Subcommands mirror the library pipelines: analyze (one isogeny class, full
report; with --weil-file, one class per line of a file in one process),
ec-census (trace distribution over F_p), convenient (certify an
order from a JSON file), measures (density tables), find-heavy (isogeny
classes with small h/H), examples (family sweeps with bound checks).

Exit codes: 0 success, 2 domain error (also every other PpavError: a
failed internal check, a rank error, or a factorization that gave up or
met a cofactor above 3.3e24 whose primality is unproven), 3 invalid Weil
polynomial, 4 I/O failure.  Each failure prints a one-line message.  JSON
output is deterministic: keys sorted, floats in shortest round-trip form
(at most 17 significant digits).

The argument parser is built on the first `main` call, not at import, and
reused by every later call in the process: a parse reads only its argv.
Importing this module loads what the other subcommands run on (argparse,
json, csv and the pipeline modules) and no more; `measures`, which needs
`fractions`, is imported by its subcommand.
"""

import argparse
import contextlib
import functools
import json
import os
import sys

from . import census, orders, strata, weil
from .errors import DomainError, NotWeilShape, PpavError

EXIT_OK = 0
EXIT_DOMAIN = 2
EXIT_NOT_WEIL = 3
EXIT_IO = 4


def _dumps(obj):
    return json.dumps(obj, sort_keys=True)


def _parse_poly(text):
    try:
        return [int(c) for c in text.split(",")]
    except ValueError as exc:
        raise DomainError(f"could not parse coefficients {text!r}") from exc


def _parse_class_line(line):
    """(coeffs, q) from one `coeffs q` line of an --weil-file."""
    fields = line.split()
    if len(fields) != 2:
        raise DomainError(f"need 'coeffs q', got {line.strip()!r}")
    try:
        q = int(fields[1])
    except ValueError as exc:
        raise DomainError(f"could not parse q {fields[1]!r}") from exc
    return _parse_poly(fields[0]), q


def _analyze_class(coeffs, q, as_json):
    """Print the full report for one isogeny class."""
    spec = weil.isogeny_class(coeffs, q)
    reports = strata.analyze(spec)  # ordinary and simple, before any orders work
    ctx = orders.FieldContext(spec.f, spec.q)
    minimal = orders.minimal_order(ctx)
    cert = orders.minimal_order_certificate(minimal)
    header = {
        "type": "class",
        "weil": [str(c) for c in spec.f],
        "q": str(spec.q),
        "n": str(spec.n),
        "real_weil": [str(c) for c in spec.g],
        "angles": list(spec.angles),
        "ordinary": spec.ordinary,
        "simple": spec.simple,
        "minimal_order": {
            "den": str(minimal.den),
            "basis": [[str(x) for x in row] for row in minimal.rows],
        },
        "convenient": {
            "stable_under_conjugation": cert.stable_under_conjugation,
            "real_subring_gorenstein": cert.real_subring_gorenstein,
            "pure_imaginary_index": str(cert.pure_imaginary_index),
            "is_convenient": cert.is_convenient,
        },
    }
    if as_json:
        print(_dumps(header))
        for report in reports:
            print(_dumps({"type": "stratum", **strata.report_to_json(report)}))
    else:
        print(f"Weil polynomial over F_{spec.q}: {list(spec.f)} (n = {spec.n})")
        print(f"  real companion: {list(spec.g)}")
        print(f"  Frobenius angles: {[round(a, 6) for a in spec.angles]}")
        print(f"  minimal order Z[pi, pibar]: den={minimal.den} rows={list(minimal.rows)}")
        print(f"  convenient: {cert.is_convenient} (index {cert.pure_imaginary_index})")
        for report in reports:
            if report.exact_count is not None:
                print(
                    f"  stratum {report.stratum}: {report.exact_count} principally "
                    f"polarized varieties (exact), disc ratio {report.ratio_exact}"
                )
            else:
                print(
                    f"  stratum {report.stratum}: ~{report.estimate:.1f} (estimate), "
                    f"disc ratio {report.ratio_exact}, surjectivity {report.surjectivity}, "
                    f"odd ramification {report.odd_ramified}"
                )


def _cmd_analyze(args):
    if args.weil_file is None:
        _analyze_class(_parse_poly(args.weil), args.q, args.json)
        return EXIT_OK
    # opened before any work, so a missing file prints nothing; read as bytes,
    # so a line that is not UTF-8 fails to parse like any other junk, and a
    # byte-order mark before line 1 is dropped
    if args.weil_file == "-":
        source = contextlib.nullcontext(sys.stdin.buffer)
    else:
        source = open(args.weil_file, "rb")
    with source as lines:
        for number, raw in enumerate(lines, 1):
            line = raw.decode("utf-8-sig" if number == 1 else "utf-8", "replace")
            if not line.strip():
                continue
            try:
                _analyze_class(*_parse_class_line(line), args.json)
            except PpavError as exc:
                return _report_failure(exc, f"line {number}: ")
    return EXIT_OK


@contextlib.contextmanager
def _replaced_on_success(path, **kwargs):
    """A file open for writing beside path, renamed onto path when the block
    succeeds and removed when it fails, so a failure leaves path as it was."""
    staged = f"{path}.{os.getpid()}.tmp"
    try:
        with open(staged, "w", **kwargs) as handle:
            yield handle
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(staged)
        raise
    os.replace(staged, path)


def _cmd_ec_census(args):
    # the arguments, then both staged output files, before the census runs
    census.check_bins(args.bins)
    census.check_prime(args.p)
    with _replaced_on_success(args.out, newline="") as handle, _replaced_on_success(
        args.out + ".summary.json"
    ) as out:
        rows = census.enumerate_ec(args.p)
        summary = census.summarize(rows, bins=args.bins)
        census.write_census_csv(rows, handle)
        out.write(_dumps(census.summary_to_json(summary)))
        out.write("\n")
    print(
        f"p={args.p}: {summary.class_count} classes, {summary.curve_total} curves, "
        f"TV to semicircle {summary.tv_to_semicircle:.4f}"
    )
    return EXIT_OK


def _cmd_convenient(args):
    _, lattice = orders.load_order_file(args.order_file)
    cert = orders.convenient_certificate(lattice)
    gorenstein = orders.is_gorenstein(lattice)
    print(
        _dumps(
            {
                "stable_under_conjugation": cert.stable_under_conjugation,
                "real_subring_gorenstein": cert.real_subring_gorenstein,
                "pure_imaginary_index": cert.pure_imaginary_index,
                "is_convenient": cert.is_convenient,
                "is_gorenstein": gorenstein,
            }
        )
    )
    return EXIT_OK


def _cmd_measures(args):
    # imported here so that no other subcommand pays for compiling the module
    from . import measures

    # both checks before the constants print or --out is truncated
    spec = measures.measure_spec(args.n)
    measures.check_grid(args.n, args.grid)
    constants = {
        "n": args.n,
        "v_n": str(spec.v_n),
        "c_n": spec.c_n,
        "d_n_nominal": spec.d_n_nominal,
        "d_n_eff": spec.d_n_eff,
    }
    # --out is opened before the constants print, so a failed open prints nothing
    table = open(args.out, "w", newline="") if args.out else contextlib.nullcontext(sys.stdout)
    with table as handle:
        print(_dumps(constants))
        measures.write_density_csv(args.n, args.grid, handle)
    return EXIT_OK


def _cmd_find_heavy(args):
    witness = strata.find_heavy_isogeny_class(args.m, args.d0, search_limit=args.limit)
    payload = {
        "p": str(witness.p),
        "t": str(witness.t),
        "delta": str(witness.delta),
        "conductor": str(witness.conductor),
        "conductor_note": witness.conductor_note,
        "ratio": str(witness.ratio),
        "bound": str(witness.bound),
        "x": str(witness.x),
        "y": str(witness.y),
    }
    print(_dumps(payload))
    return EXIT_OK


def _cmd_examples(args):
    primes = strata.family_primes(args.pmax)
    if not primes:
        raise DomainError(f"no primes congruent to 7 mod 8 below {args.pmax}")
    # each line prints as its report is made, so a failure keeps the lines before it
    for p in primes:
        report = strata.example_family(args.family, p)[1]
        print(
            _dumps(
                {
                    "family": report.kind,
                    "p": str(report.p),
                    "ratio_exact": str(report.ratio_exact),
                    "bound_checked": report.bound_checked,
                }
            )
        )
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ppav",
        description="Exact analysis of simple ordinary isogeny classes: convenient "
        "orders, principally polarized counts per stratum, and angle distributions.",
    )
    parser.add_argument(
        "--threads", type=int, default=1, help="accepted and ignored; ppav runs single-threaded"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_an = sub.add_parser("analyze", help="full report for one Weil polynomial, or one per line")
    source = p_an.add_mutually_exclusive_group(required=True)
    source.add_argument("--weil", help="comma-separated ascending coefficients")
    source.add_argument(
        "--weil-file",
        metavar="PATH",
        help="one 'coeffs q' pair per line ('-' reads stdin); stops at the first bad line",
    )
    p_an.add_argument("--q", type=int, help="prime power field size (with --weil)")
    p_an.add_argument("--json", action="store_true", help="machine-readable output")
    p_an.set_defaults(func=_cmd_analyze)

    p_ec = sub.add_parser("ec-census", help="elliptic census over F_p")
    p_ec.add_argument("--p", required=True, type=int)
    p_ec.add_argument(
        "--bins", type=int, default=40, help=f"histogram bins, 1 to {census.MAX_BINS} (default 40)"
    )
    p_ec.add_argument("--out", required=True, help="CSV path; summary JSON gets .summary.json")
    p_ec.set_defaults(func=_cmd_ec_census)

    p_cv = sub.add_parser("convenient", help="certify an order from a JSON lattice file")
    p_cv.add_argument("--order-file", required=True)
    p_cv.set_defaults(func=_cmd_convenient)

    p_me = sub.add_parser("measures", help="angle-density tables and constants")
    p_me.add_argument("--n", required=True, type=int)
    # the cap is measures.MAX_GRID_ROWS, written out so the parser need not
    # import measures
    p_me.add_argument(
        "--grid",
        type=int,
        default=64,
        help="grid points on [0, pi] (default 64); the table has C(GRID + N - 1, N) rows, "
        "at most 10000000",
    )
    p_me.add_argument("--out", help="CSV path (default: stdout)")
    p_me.set_defaults(func=_cmd_measures)

    p_fh = sub.add_parser("find-heavy", help="isogeny class with small h/H")
    p_fh.add_argument("--m", required=True, type=int)
    p_fh.add_argument("--d0", required=True, type=int, help="fundamental discriminant < -4")
    p_fh.add_argument("--limit", type=int, default=10_000)
    p_fh.set_defaults(func=_cmd_find_heavy)

    p_ex = sub.add_parser("examples", help="sweep an example family, checking bounds")
    p_ex.add_argument("--family", required=True, choices=["small", "smaller", "smallest"])
    p_ex.add_argument(
        "--pmax",
        required=True,
        type=int,
        help=f"sweep the primes below PMAX, which is at most {strata.FAMILY_PMAX_CAP}",
    )
    p_ex.set_defaults(func=_cmd_examples)

    return parser


def _report_failure(exc, where=""):
    """Print the one-line message for a failed command; return its exit code."""
    if isinstance(exc, OSError):
        print(f"i/o error: {where}{exc}", file=sys.stderr)
        return EXIT_IO
    print(f"error: {where}{exc}", file=sys.stderr)
    return EXIT_NOT_WEIL if isinstance(exc, NotWeilShape) else EXIT_DOMAIN


@functools.cache
def _parser():
    """The parser of every `main` call in this process, built by the first."""
    return build_parser()


def main(argv=None):
    args = _parser().parse_args(argv)
    if args.command == "analyze" and (args.q is None) != (args.weil is None):
        # argparse cannot tie --q to --weil alone
        if args.q is None:
            _parser().error("analyze: the following arguments are required: --q")
        _parser().error("analyze: argument --q: not allowed with argument --weil-file")
    try:
        return args.func(args)
    except (PpavError, OSError) as exc:
        return _report_failure(exc)


if __name__ == "__main__":
    sys.exit(main())
