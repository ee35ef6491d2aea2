"""Seeded inputs and correctness oracles for the ppav benchmark workloads.

Nothing here imports ppav.  The inputs and the checks belong to the
benchmark, so a parent commit and a change receive identical inputs for a
seed and are judged by the same independent identities.

An op is one `ppav` command line (without the global `--threads 1`, which
the worker adds).  The token `{out}` in an op is replaced by a fresh file
path inside the checkout.  `generate` returns the ops of one pass; `check`
returns one failure message per op that breaks its oracle.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import random
from fractions import Fraction
from math import gcd, isqrt

NAMES = ("surface-analyze", "family-sweep", "ec-census", "ec-analyze")

# Full sizes.  Smoke sizes keep every code path but finish in seconds.
SIZES = {
    "full": {
        "surface_count": 200,
        "surface_qmax": 10_000,
        "family_pmax": 10_000,
        "family_jitter": 100,
        "census_window": (120_000, 125_000),
        "ec_count": 16,
        "ec_band": (10**8, 2 * 10**8),
    },
    "smoke": {
        "surface_count": 4,
        "surface_qmax": 200,
        "family_pmax": 300,
        "family_jitter": 20,
        "census_window": (1_000, 2_000),
        "ec_count": 2,
        "ec_band": (10**5, 2 * 10**5),
    },
}

# Census cost depends on how often t^2 - 4p has square factors, which the
# residues of p modulo 3, 5 and 8 decide.  Fixing p mod 120 keeps that
# share the same on every seed, so seeds differ in inputs but not in work.
CENSUS_RESIDUE = 11
CENSUS_MODULUS = 120


# ---------------------------------------------------------------------------
# small exact helpers of the benchmark's own


def is_prime(n):
    """Deterministic Miller-Rabin with bases 2, 3, 5, 7: exact below 3.2e9."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7):
        if n % p == 0:
            return n == p
    if n >= 3_215_031_751:
        raise ValueError("benchmark primality test is proven only below 3.2e9")
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in (2, 3, 5, 7):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def trial_factor(n):
    """{prime: exponent} of n > 0 by plain trial division."""
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def fundamental_part(delta):
    """(d0, conductor) with delta = conductor^2 * d0, d0 fundamental, delta < 0."""
    square, free = 1, -1
    for p, e in trial_factor(-delta).items():
        square *= p ** (e // 2)
        if e % 2:
            free *= p
    if free % 4 == 1:
        return free, square
    return 4 * free, square // 2


def _is_square(n):
    return n >= 0 and isqrt(n) ** 2 == n


def hurwitz_weighted(n):
    """Hurwitz class number H(n) for n > 0, n = 0 or 3 mod 4.

    Counts all reduced forms of discriminant -n, primitive or not, with the
    forms proportional to x^2 + y^2 weighted 1/2 and those proportional to
    x^2 + xy + y^2 weighted 1/3.
    """
    total = Fraction(0)
    for b in range(n % 2, isqrt(n // 3) + 1, 2):
        m = (b * b + n) // 4
        a = max(b, 1)
        while a * a <= m:
            if m % a == 0:
                c = m // a
                if a == b == c:
                    total += Fraction(1, 3)
                elif b == 0 and a == c:
                    total += Fraction(1, 2)
                elif b == 0 or b == a or a == c:
                    total += 1
                else:
                    total += 2
            a += 1
    return total


def digest(obj):
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


# ---------------------------------------------------------------------------
# generators


def _sign_plus_root(a, b, q):
    """Exact sign of a + b sqrt(q)."""
    sa = (a > 0) - (a < 0)
    sb = (b > 0) - (b < 0)
    if sa == sb or sb == 0:
        return sa or sb
    if sa == 0:
        return sb
    lhs, rhs = a * a, b * b * q
    return 0 if lhs == rhs else (sa if lhs > rhs else sb)


def surface_is_simple(q, a, b):
    """Irreducibility of x^4 + a x^3 + b x^2 + a q x + q^2 over Q, q prime."""
    f = (q * q, a * q, b, a, 1)
    units = [s * d for d in (1, q, q * q) for s in (1, -1)]
    for r in units:
        if sum(c * r**i for i, c in enumerate(f)) == 0:
            return False
    # (x^2 + u x + v)(x^2 + w x + z) with v z = q^2, u + w = a,
    # u z + v w = a q, v + z + u w = b
    for v in units:
        z = q * q // v
        if z != v:
            num = a * q - a * v
            if num % (z - v):
                continue
            u = num // (z - v)
            if v + z + u * (a - u) == b:
                return False
        elif v * a == a * q:
            disc = a * a - 4 * (b - 2 * v)
            if _is_square(disc):
                return False
    return True


def _stratum_prime(rng, lo, hi):
    while True:
        p = rng.randrange(lo, hi)
        if is_prime(p):
            return p


def surface_classes(rng, count, qmax):
    """Simple ordinary surface classes (q, a, b), one q per equal-width stratum
    of [3, qmax], with (a, b) uniform over the valid Weil region."""
    if (qmax - 3) // count < 40 or qmax > 10_000:
        raise ValueError("strata must be at least 40 wide, wider than any prime gap below 10^4")
    out = []
    for i in range(count):
        lo = 3 + (qmax - 3) * i // count
        hi = 3 + (qmax - 3) * (i + 1) // count
        while True:
            q = _stratum_prime(rng, lo, hi)
            s = isqrt(4 * q)
            a = rng.randrange(-2 * s - 1, 2 * s + 2)
            c = rng.randrange(-6 * q, 6 * q + 1)
            # g = x^2 + a x + c has distinct real roots inside (-2 sqrt q, 2 sqrt q)
            if a * a - 4 * c <= 0 or a * a >= 16 * q:
                continue
            if _sign_plus_root(4 * q + c, 2 * a, q) <= 0:
                continue
            if _sign_plus_root(4 * q + c, -2 * a, q) <= 0:
                continue
            b = c + 2 * q
            if gcd(b, q) != 1 or not surface_is_simple(q, a, b):
                continue
            out.append((q, a, b))
            break
    return out


def elliptic_classes(rng, count, band):
    """Ordinary elliptic classes (q, t), one q per equal-width stratum of the
    band, with |t| < sqrt(q) and t^2 - 4q a fundamental discriminant, so each
    class costs one class-number computation of size about 4q."""
    lo, hi = band
    out = []
    for i in range(count):
        s_lo = lo + (hi - lo) * i // count
        s_hi = lo + (hi - lo) * (i + 1) // count
        while True:
            q = _stratum_prime(rng, s_lo, s_hi)
            t = rng.randrange(1, isqrt(q) // 2) * rng.choice((1, -1))
            if fundamental_part(t * t - 4 * q)[1] == 1:
                break
        out.append((q, t))
    return out


def census_prime(rng, window):
    lo, hi = window
    while True:
        p = rng.randrange(lo, hi)
        if p % CENSUS_MODULUS == CENSUS_RESIDUE and is_prime(p):
            return p


def generate(name, seed, size="full"):
    """The ops of one pass of workload `name` for `seed`."""
    cfg = SIZES[size]
    rng = random.Random(f"{name}:{seed}")
    if name == "surface-analyze":
        return [
            ["analyze", "--weil", f"{q * q},{a * q},{b},{a},1", "--q", str(q), "--json"]
            for q, a, b in surface_classes(rng, cfg["surface_count"], cfg["surface_qmax"])
        ]
    if name == "family-sweep":
        jitter = cfg["family_jitter"]
        pmax = cfg["family_pmax"] + rng.randrange(-jitter, jitter + 1)
        families = ["small", "smaller", "smallest"]
        rng.shuffle(families)
        return [["examples", "--family", fam, "--pmax", str(pmax)] for fam in families]
    if name == "ec-census":
        p = census_prime(rng, cfg["census_window"])
        return [["ec-census", "--p", str(p), "--out", "{out}"]]
    if name == "ec-analyze":
        return [
            ["analyze", "--weil", f"{q},{-t},1", "--q", str(q), "--json"]
            for q, t in elliptic_classes(rng, cfg["ec_count"], cfg["ec_band"])
        ]
    raise ValueError(f"unknown workload {name!r}")


# ---------------------------------------------------------------------------
# oracles: each returns None when the output is right, else a message


def _arg(op, flag):
    return op[op.index(flag) + 1]


def _check_ratios(lines):
    for line in lines[1:]:
        exact = int(line["ratio_exact"])
        trig = line["ratio_trig"]
        if abs(trig - exact) > 1e-9 * exact:
            return f"ratio_trig {trig!r} differs from ratio_exact {exact}"
    return None


def _parse_analyze(op, output):
    lines = [json.loads(line) for line in output["stdout"].splitlines()]
    weil = _arg(op, "--weil").split(",")
    if not lines or lines[0].get("type") != "class" or lines[0]["weil"] != weil:
        raise ValueError("missing or foreign class header")
    if len(lines) < 2 or any(line.get("type") != "stratum" for line in lines[1:]):
        raise ValueError("missing stratum lines")
    return lines


def check_surface(op, output):
    lines = _parse_analyze(op, output)
    if [line["stratum"] for line in lines[1:]] != ["minimal"]:
        return "surface class must report exactly the minimal stratum"
    return _check_ratios(lines)


def check_elliptic(op, output):
    lines = _parse_analyze(op, output)
    message = _check_ratios(lines)
    if message:
        return message
    q, t = int(_arg(op, "--q")), -int(_arg(op, "--weil").split(",")[1])
    d0, conductor = fundamental_part(t * t - 4 * q)
    strata = {line["stratum"]: int(line["exact_count"]) for line in lines[1:]}
    expected = {f"conductor-{f}" for f in range(1, conductor + 1) if conductor % f == 0}
    if set(strata) != expected:
        return f"strata {sorted(strata)} are not the divisors of conductor {conductor}"
    # genus theory: 2^(omega(d0) - 1) divides h(d0)
    omega = len(trial_factor(-d0))
    h0 = strata["conductor-1"]
    if h0 <= 0 or h0 % (1 << (omega - 1)):
        return f"h({d0}) = {h0} is not divisible by 2^{omega - 1}"
    return None


def family_primes(pmax):
    return [p for p in range(7, pmax) if p % 8 == 7 and is_prime(p)]


def check_family(op, output):
    kind, pmax = _arg(op, "--family"), int(_arg(op, "--pmax"))
    lines = [json.loads(line) for line in output["stdout"].splitlines()]
    if [int(line["p"]) for line in lines] != family_primes(pmax):
        return "members are not the primes p = 7 mod 8 below pmax"
    for line in lines:
        p, ratio, checked = int(line["p"]), int(line["ratio_exact"]), line["bound_checked"]
        if line["family"] != kind:
            return f"member p={p} reports family {line['family']!r}"
        if kind == "small":
            proven = 32 * 32 * p**5 < ratio * ratio < 144 * 144 * p**5
            ok = checked and proven
        elif kind == "smaller":
            ok = checked and ratio == 5 * (16 * p * p - 12 * p + 1)
        else:
            ok = checked == (p > 144) and (p <= 144 or 75 * p < ratio < 400 * p)
        if not ok:
            return f"family {kind} member p={p}: ratio {ratio}, bound_checked {checked}"
    return None


def check_census(op, output):
    p = int(_arg(op, "--p"))
    rows = list(csv.DictReader(io.StringIO(output["csv"])))
    summary = json.loads(output["summary"])
    traces = [int(r["t"]) for r in rows]
    s = isqrt(4 * p)
    if traces != [t for t in range(-s, s + 1) if t != 0]:
        return "census rows are not the ordinary traces in ascending order"
    # Kronecker-Hurwitz: sum over t^2 < 4p of H_w(4p - t^2) = 2p, with the
    # rows' own H and the maximal orders of d0 = -4, -3 weighted 1/2, 1/3
    total = hurwitz_weighted(4 * p)
    for r in rows:
        t, delta, h = int(r["t"]), int(r["delta"]), int(r["H"])
        if delta != t * t - 4 * p:
            return f"row t={t} has delta {delta}"
        weighted = Fraction(h)
        if -delta % 4 == 0 and _is_square(-delta // 4):
            weighted -= Fraction(1, 2)
        elif -delta % 3 == 0 and _is_square(-delta // 3):
            weighted -= Fraction(2, 3)
        total += weighted
    if total != 2 * p:
        return f"Kronecker-Hurwitz sum is {total}, expected {2 * p}"
    if summary["class_count"] != len(rows) or int(summary["curve_total"]) != sum(
        int(r["H"]) for r in rows
    ):
        return "summary totals disagree with the rows"
    return None


CHECKS = {
    "surface-analyze": check_surface,
    "family-sweep": check_family,
    "ec-census": check_census,
    "ec-analyze": check_elliptic,
}


def check(name, op, output):
    """Failure message for one op's output, or None when it is correct."""
    try:
        return CHECKS[name](op, output)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return f"malformed output: {exc!r}"
