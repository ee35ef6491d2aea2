"""Elliptic-curve census over a prime field.

Enumerates the ordinary isogeny classes (traces t with 0 < |t| < 2 sqrt(p)),
weights each by its Kronecker class number H(t^2 - 4p) = number of curves,
and compares the curve-weighted trace histogram against the limiting
semicircular density (2/pi) sqrt(1 - x^2).

The class numbers of all traces come from one walk over the reduced forms
of discriminant above -4p, with no factorization and one count per trace
as its only memory.

Curves are counted by j-invariant weight one: the extra automorphisms at
j = 0 and j = 1728 would adjust at most two traces per field by O(1), and
no weighting is applied for them.
"""

from __future__ import annotations

import csv

import math
from dataclasses import dataclass
from fractions import Fraction

from math import isqrt

from . import arith, quadratic
from .errors import DomainError, InternalError

@dataclass(frozen=True)
class CensusRow:
    t: int
    delta: int
    H: int
    normalized_trace: float

@dataclass(frozen=True)
class CensusSummary:
    p: int
    class_count: int
    curve_total: int
    bins: int
    histogram: tuple
    tv_to_semicircle: float
    predicted_class_count: float

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

    Every H(t^2 - 4p) comes from one walk over reduced forms
    (`_reduced_form_counts`), with no factorization.  The rows are checked
    against the Kronecker-Hurwitz relation before return, with H(-4p) taken
    from `quadratic.kronecker_class_number`, which counts by first coefficient.
    """
    check_prime(p)
    counts = _reduced_form_counts(p)
    rows = [
        CensusRow(
            t=t,
            delta=t * t - 4 * p,
            H=counts[abs(t)],
            normalized_trace=t / (2 * math.sqrt(p)),
        )
        for t in ordinary_traces(p)
    ]
    supersingular = quadratic.kronecker_class_number(-4 * p)
    total = sum(_hurwitz_weighted(r.delta, r.H) for r in rows)
    total += _hurwitz_weighted(-4 * p, supersingular)
    if total != 2 * p:
        raise InternalError(f"Kronecker-Hurwitz sum {total} != 2p = {2 * p} at p = {p}")
    return rows

def _reduced_form_counts(p):
    """counts[t] = H(t^2 - 4p) for 1 <= t <= sqrt(4p) (counts[0] is 0).

    H(delta) is the number of all reduced forms (a, b, c) of discriminant
    delta, primitive or not, so one walk over 0 <= b <= a <= sqrt(4p/3)
    counts the forms of every trace at once.  A trace t has a form
    (a, +-b, c) exactly when t^2 = b^2 + 4p (mod 4a), which depends only on
    t mod 2a, and c >= a exactly when t^2 <= b^2 + 4p - 4a^2.
    """
    counts = [0] * (isqrt(4 * p) + 1)
    for a in range(1, isqrt(4 * p // 3) + 1):
        step, mod = 2 * a, 4 * a
        classes = {}  # t^2 mod 4a -> the t in [1, 2a] with that square
        for r in range(1, step + 1):
            classes.setdefault(r * r % mod, []).append(r)
        for b in range(a + 1):
            room = b * b + 4 * p - 4 * a * a
            if room < 1:
                continue
            tmax = isqrt(room)
            weight = 1 if b == 0 or b == a else 2  # (a, b, c) and (a, -b, c)
            for r in classes.get((b * b + 4 * p) % mod, ()):
                for t in range(r, tmax + 1, step):
                    counts[t] += weight
            if weight == 2 and tmax * tmax == room:
                counts[tmax] -= 1  # c = a: (a, -b, a) is not reduced
    return counts

def _hurwitz_weighted(delta, big_h):
    """H_w(delta): H(delta) with the order of discriminant -3 weighted 1/3
    and that of -4 weighted 1/2, as an exact Fraction."""
    for d0, off in ((3, Fraction(2, 3)), (4, Fraction(1, 2))):
        k, r = divmod(-delta, d0)
        if r == 0 and isqrt(k) ** 2 == k:
            return big_h - off
    return Fraction(big_h)

def _semicircle_cdf(x):
    x = min(1.0, max(-1.0, x))
    return (x * math.sqrt(max(0.0, 1.0 - x * x)) + math.asin(x)) / math.pi + 0.5

def check_bins(bins):
    if bins < 1:
        raise DomainError(f"need at least one bin, got {bins}")

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
    return CensusSummary(
        p=p,
        class_count=len(rows),
        curve_total=total,
        bins=bins,
        histogram=tuple(masses),
        tv_to_semicircle=tv / 2.0,
        predicted_class_count=predicted,
    )

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
