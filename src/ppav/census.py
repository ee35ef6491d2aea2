"""Elliptic-curve census over a prime field.

Enumerates the ordinary isogeny classes (traces t with 0 < |t| < 2 sqrt(p)),
weights each by its Kronecker class number H(t^2 - 4p) = number of curves,
and compares the curve-weighted trace histogram against the limiting
semicircular density (2/pi) sqrt(1 - x^2).

The class numbers of all traces come from one walk over the reduced forms
of discriminant above -4p, with no factorization and one count per trace
as its only memory.  Per first coefficient a, the table of t^2 mod 4a
holds t <= a only and b starts where c >= a.  An integer Kronecker-Hurwitz
sum checks every census.

Curves are counted by j-invariant weight one: the extra automorphisms at
j = 0 and j = 1728 would adjust at most two traces per field by O(1), and
no weighting is applied for them.
"""

import csv
import math
from collections import namedtuple
from math import isqrt

from . import arith, quadratic
from .errors import DomainError, InternalError

class CensusRow(namedtuple("CensusRow", "t delta H normalized_trace")):
    __slots__ = ()

class CensusSummary(
    namedtuple(
        "CensusSummary",
        "p class_count curve_total bins histogram tv_to_semicircle predicted_class_count",
    )
):
    __slots__ = ()

def ordinary_traces(p):
    s = isqrt(4 * p)
    return [t for t in range(-s, s + 1) if t != 0 and t % p != 0]

def check_prime(p):
    if not arith.is_prime(p):
        raise DomainError(f"{p} is not prime")
    if p < 5:
        raise DomainError("census needs p >= 5")

def enumerate_ec(p):
    """One CensusRow per ordinary trace over F_p, in ascending trace order.

    H comes from `_reduced_form_counts`, with no factorization.  The rows
    are checked against 6 sum H_w = 12p (Kronecker-Hurwitz) in integers,
    with H(-4p) from `quadratic.kronecker_class_number`.
    """
    check_prime(p)
    counts = _reduced_form_counts(p)
    scale = 2 * math.sqrt(p)
    rows = [
        CensusRow(t, t * t - 4 * p, counts[abs(t)], t / scale)
        for t in ordinary_traces(p)
    ]
    total = sum(_sixfold_weight(r.delta, r.H) for r in rows)
    total += _sixfold_weight(-4 * p, quadratic.kronecker_class_number(-4 * p))
    if total != 12 * p:
        from fractions import Fraction

        exact = Fraction(total, 6)
        raise InternalError(f"Kronecker-Hurwitz sum {exact} != 2p = {2 * p} at p = {p}")
    return rows

def _reduced_form_counts(p):
    """counts[t] = H(t^2 - 4p) for 1 <= t <= sqrt(4p) (counts[0] is 0).

    H counts all reduced forms (a, b, c), primitive or not: one walk over
    0 <= b <= a <= sqrt(4p/3) counts every trace.  t has a form (a, +-b, c)
    iff t^2 = b^2 + 4p (mod 4a), and c >= a iff t^2 <= b^2 + 4p - 4a^2.
    2a - r has the square of r, so the table holds r in [1, a], and t = 0
    (mod 2a) joins key 0.  b starts at isqrt(4a^2 - 4p) + 1 once a > sqrt(p).
    """
    counts = [0] * (isqrt(4 * p) + 1)
    for a in range(1, isqrt(4 * p // 3) + 1):
        step, mod = 2 * a, 4 * a
        starts = {0: [step]}  # t^2 mod 4a -> the t in [1, 2a] with that square
        for r in range(1, a + 1):
            ts = starts.setdefault(r * r % mod, [])
            ts.append(r)
            if r < a:
                ts.append(step - r)
        base, low = 4 * p % mod, 4 * a * a - 4 * p
        for b in range(isqrt(low) + 1 if low >= 0 else 0, a + 1):
            ts = starts.get((b * b + base) % mod)
            if ts is None:
                continue
            room = b * b - low
            tmax = isqrt(room)
            weight = 1 if b == 0 or b == a else 2  # (a, b, c) and (a, -b, c)
            for r in ts:
                for t in range(r, tmax + 1, step):
                    counts[t] += weight
            if weight == 2 and tmax * tmax == room:
                counts[tmax] -= 1  # c = a: (a, -b, a) is not reduced
    return counts

def _sixfold_weight(delta, big_h):
    """6 H_w(delta): disc -3 weighs 1/3, -4 weighs 1/2."""
    for d0, off in ((3, 4), (4, 3)):
        k, r = divmod(-delta, d0)
        if r == 0 and isqrt(k) ** 2 == k:
            return 6 * big_h - off
    return 6 * big_h

def _semicircle_cdf(x):
    x = min(1.0, max(-1.0, x))
    return (x * math.sqrt(max(0.0, 1.0 - x * x)) + math.asin(x)) / math.pi + 0.5

# each bin costs a histogram entry in memory and in the summary JSON
MAX_BINS = 10**6

def check_bins(bins):
    if bins < 1:
        raise DomainError(f"need at least one bin, got {bins}")
    if bins > MAX_BINS:
        raise DomainError(f"need at most {MAX_BINS} bins, got {bins}")

def summarize(rows, bins=40):
    """Curve-weighted histogram of normalized traces and its total-variation
    distance to the semicircular law, integrated bin by bin."""
    if not rows:
        raise DomainError("census is empty")
    check_bins(bins)
    p = (rows[0].t * rows[0].t - rows[0].delta) // 4
    total = sum(r.H for r in rows)
    # integer accumulation, with indices mirrored from |trace|, so the
    # histogram symmetry t <-> -t is exact by construction
    weights = [0] * bins
    for r in rows:
        upper = int((abs(r.normalized_trace) + 1.0) / 2.0 * bins)
        upper = min(bins - 1, max(0, upper))
        idx = upper if r.t > 0 else bins - 1 - upper
        weights[idx] += r.H
    masses = [w / total for w in weights]
    tv = 0.0
    for i in range(bins):
        lo = -1.0 + 2.0 * i / bins
        hi = -1.0 + 2.0 * (i + 1) / bins
        target = _semicircle_cdf(hi) - _semicircle_cdf(lo)
        tv += abs(masses[i] - target)
    predicted = 4.0 * (1.0 - 1.0 / p) * math.sqrt(p)
    return CensusSummary(p, len(rows), total, bins, tuple(masses), tv / 2.0, predicted)

def write_census_csv(rows, handle):
    writer = csv.writer(handle)
    writer.writerow(["t", "delta", "H", "normalized_trace"])
    for r in rows:
        writer.writerow([r.t, r.delta, r.H, format(r.normalized_trace, ".17g")])

def summary_to_json(summary):
    return {
        "p": summary.p,
        "class_count": summary.class_count,
        "curve_total": str(summary.curve_total),
        "bins": summary.bins,
        "histogram": list(summary.histogram),
        "tv_to_semicircle": summary.tv_to_semicircle,
        "predicted_class_count": summary.predicted_class_count,
    }
