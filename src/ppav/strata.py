"""Per-stratum counts of principally polarized varieties.

Elliptic isogeny classes get exact per-conductor counts from class numbers.
For abelian surfaces the minimal stratum gets the square-root-of-discriminant
estimator together with certificates (odd ramification, norm surjectivity)
that pin down the exact class-number formula a user would apply; quartic
class groups themselves are deliberately out of scope.  Both certificates
come from one pass, `_certificates`, and reach users through `analyze`.

Every reader here takes a class from `weil.isogeny_class`, so n <= 2, and
reads its ordinarity, simplicity and discriminant norms off the record;
none of them is decided, or the degree guarded, a second time.
"""

import math
from collections import namedtuple
from itertools import compress
from math import gcd, isqrt

from . import arith, quadratic, weil
from .errors import DomainError, InternalError, SearchLimitError


def disc_ratio_exact(spec):
    """|disc(Z[pi, pibar]) / disc(Z[pi + pibar])| as an exact integer.

    It is |N(alpha^2 - 4q)| * |disc g| for alpha = pi + pibar with minimal
    polynomial g, read off `spec.discriminant_norms`.
    """
    norm_delta, disc_g = spec.discriminant_norms
    return norm_delta * disc_g


def disc_ratio_trig(spec):
    """The same discriminant ratio from the Frobenius angles.

    Square of 2^(n(n+1)/2) q^(n(n+1)/4) prod_{i<j}(cos t_i - cos t_j)
    prod_i sin t_i.
    """
    n = spec.n
    angles = spec.angles
    value = 2.0 ** (n * (n + 1) / 2) * float(spec.q) ** (n * (n + 1) / 4)
    for i in range(n):
        for j in range(i + 1, n):
            value *= math.cos(angles[i]) - math.cos(angles[j])
        value *= math.sin(angles[i])
    return value * value


def h_minus_estimate(spec):
    """Order-of-magnitude estimate sqrt(disc ratio) for the count of
    principally polarized varieties in the minimal stratum.

    The underlying growth statement is asymptotic with unbounded slack in
    both directions, so this is an estimator, never an exact count.
    """
    return math.sqrt(disc_ratio_exact(spec))


# ---------------------------------------------------------------------------
# elliptic strata (exact)


def ec_stratum_counts(t, q):
    """[(conductor f, h(f^2 delta0))] for the elliptic trace-t class over F_q.

    The total over strata is the Kronecker class number H(t^2 - 4q); each
    variety in the stratum carries exactly one polarization class.
    """
    if t * t >= 4 * q:
        raise DomainError("need t^2 < 4q")
    if gcd(t, q) != 1:
        raise DomainError("non-ordinary trace: gcd(t, q) != 1")
    return quadratic.stratified_class_numbers(t * t - 4 * q)


# ---------------------------------------------------------------------------
# certificates for abelian surfaces


def _odd_valuation_primes(spec):
    """(rad, conductor, N, ells) for a surface class, by one integer pass.

    K+ = Q(sqrt(rad)), conductor is that of Z[alpha] in its maximal order,
    N = |N(alpha^2 - 4q)|, and ells lists the odd primes ell with some prime
    above ell dividing (alpha^2 - 4q) to odd valuation.

    With g = x^2 + B x + C and disc g = e^2 rad, alpha^2 - 4q =
    (A + B' sqrt(rad))/2 for A = B^2 - 2C - 8q and B' = -B e.  Let
    v = v_ell(N) and c = min(v_ell(A), v_ell(B')), so alpha^2 - 4q =
    ell^c y with ell not dividing y.  A split ell gives the two valuations
    {c, v - c}, since y lies in at most one prime above it; an inert ell
    gives c, a ramified ell gives v (Cohen, GTM 138, 5.2).  So some
    valuation above ell is odd iff v is odd, or ell does not divide rad and
    c is odd.  N and disc g come from `spec.discriminant_norms`; the closed
    form |A^2 - B'^2 rad| = 4N is checked against them.  Both are nonzero
    for a simple class: disc g is no square, and a root of g at +-2 sqrt(q)
    would make g = x^2 - 4q (not simple) or, for square q, reducible.
    """
    big_b, big_c = spec.g[1], spec.g[0]  # g = x^2 + B x + C
    norm, disc_g = spec.discriminant_norms
    d0, conductor = quadratic.fundamental_decomposition(disc_g)
    rad = d0 if d0 % 4 == 1 else d0 // 4
    e = conductor if d0 % 4 == 1 else 2 * conductor  # sqrt(disc_g) = e sqrt(rad)
    a = big_b * big_b - 2 * big_c - 8 * spec.q
    b = -big_b * e
    closed = abs(a * a - b * b * rad)
    if closed != 4 * norm:
        raise InternalError(f"|A^2 - B'^2 rad| = {closed}, but 4 |N(alpha^2 - 4q)| = {4 * norm}")
    content = gcd(a, b)
    ells = []
    for ell, v in arith.factorize(norm).items():
        if ell == 2:
            continue
        c = 0
        while content % ell == 0:
            content //= ell
            c += 1
        if v % 2 or (rad % ell and c % 2):
            ells.append(ell)
    return rad, conductor, norm, ells


def _certificates(spec):
    """(odd_ramified, surjectivity) read off `_odd_valuation_primes`.

    K/K+ is ramified at an odd prime if one divides (alpha^2 - 4q) to odd
    valuation, and the class-group norm map is surjective if such a prime
    does not divide the conductor of Z[alpha]; each is "certified" when
    that holds, else "unknown", never a claim of the converse.
    """
    _, conductor, _, ells = _odd_valuation_primes(spec)
    odd = "certified" if ells else "unknown"
    surj = "certified" if any(conductor % ell for ell in ells) else "unknown"
    return odd, surj


def real_unit_index(spec):
    """[totally positive units : squared units] of Z[alpha]: 1 or 2."""
    if spec.n == 1:
        return 1
    return 1 if quadratic.unit_norm(spec.discriminant_norms[1]) == -1 else 2


# ---------------------------------------------------------------------------
# heavy isogeny classes: small h / H


# delta = t^2 - 4p expands to 4 m^2 y^2 delta0, so the conductor is 2my
# (not my); only divisibility by m is asserted or needed
class HeavyClassWitness(
    namedtuple(
        "HeavyClassWitness",
        "p t delta conductor ratio bound x y conductor_note",
        defaults=("conductor = 2my; certified property is m | conductor",),
    )
):
    """ratio and bound are the Fractions of `quadratic.h_over_H_bound`."""

    __slots__ = ()


def find_heavy_isogeny_class(m, delta0, search_limit=10_000):
    """Smallest prime p = x^2 + m^2 |delta0| y^2 (y, then x, ascending) whose
    trace-2x elliptic class has conductor divisible by m.

    The corresponding fraction h/H of curves with minimal endomorphism ring
    is at most prod_{p | F} (p+1)/(p+2), which the returned witness checks.
    Note the conductor comes out as 2my exactly (t^2 - 4p = 4 m^2 y^2 delta0);
    a scratch derivation that drops the factor 4 would predict my, so the
    witness records the discrepancy and asserts only m | conductor.
    """
    if m < 2:
        raise DomainError("need m >= 2")
    if search_limit < 1:
        raise DomainError(f"search limit must be at least 1, got {search_limit}")
    if delta0 >= -4 or not quadratic.is_fundamental(delta0):
        raise DomainError("need a fundamental discriminant < -4")
    n = m * m * abs(delta0)
    for y in range(1, search_limit + 1):
        for x in range(1, search_limit + 1):
            p = x * x + n * y * y
            if not arith.is_prime(p):
                continue
            t = 2 * x
            if gcd(t, p) != 1:
                continue
            delta = t * t - 4 * p
            found_delta0, conductor = quadratic.fundamental_decomposition(delta)
            if found_delta0 != delta0:
                raise InternalError("discriminant decomposition disagrees")
            if conductor % m != 0:
                raise InternalError("conductor lost the factor m")
            ratio, bound = quadratic.h_over_H_bound(delta)  # raises InternalError if ratio > bound
            return HeavyClassWitness(
                p=p, t=t, delta=delta, conductor=conductor,
                ratio=ratio, bound=bound, x=x, y=y,
            )
    raise SearchLimitError(f"no prime x^2 + {n} y^2 with x, y <= {search_limit}")


# ---------------------------------------------------------------------------
# the three example families of abelian surfaces


class FamilyReport(namedtuple("FamilyReport", "kind p f ratio_exact angles bound_checked")):
    __slots__ = ()


def _family_polynomial(kind, p):
    if kind == "small":
        a = isqrt(p) - 1  # largest integer below sqrt(p) - 1
        return (p * p, -2 * a * p, a * a + p, -2 * a, 1)
    if kind == "smaller":
        return (p * p, p, 2 * p - 1, 1, 1)
    if kind == "smallest":
        c = isqrt(4 * p) - 1  # largest integer below 2 sqrt(p) - 1
        return (p * p, p * (1 - 2 * c), 2 * p + c * c - c - 1, 1 - 2 * c, 1)
    raise DomainError(f"unknown family {kind!r}")


def example_family(kind, p):
    """Weil polynomial and discriminant-ratio report for one family member.

    Families are indexed by primes p = 7 mod 8 and stress the three growth
    regimes of the estimator: ratio ~ p^(5/2) ("small"), ~ p^2 ("smaller",
    with an exact closed form), and ~ p ("smallest").  Violated bounds
    raise InternalError; they are proven facts about the construction.
    """
    if not arith.is_prime(p) or p % 8 != 7:
        raise DomainError("family members are indexed by primes p = 7 mod 8")
    f = _family_polynomial(kind, p)
    spec = weil.isogeny_class(f, p)
    if not spec.ordinary:
        raise InternalError(f"family member p={p} is not ordinary")
    if not spec.simple:
        raise InternalError(f"family member p={p} is not simple")
    ratio = disc_ratio_exact(spec)
    checked = False
    if kind == "small":
        # 32 p^(5/2) < ratio < 144 p^(5/2), compared through squares
        if not (32 * 32 * p**5 < ratio * ratio < 144 * 144 * p**5):
            raise InternalError(f"small-family bound fails at p={p}")
        checked = True
    elif kind == "smaller":
        if ratio != 5 * (16 * p * p - 12 * p + 1):
            raise InternalError(f"smaller-family identity fails at p={p}")
        checked = True
    elif kind == "smallest":
        if p > 144:
            if not (75 * p < ratio < 400 * p):
                raise InternalError(f"smallest-family bound fails at p={p}")
            checked = True
    return spec, FamilyReport(
        kind=kind, p=p, f=f, ratio_exact=ratio, angles=spec.angles, bound_checked=checked
    )


# a sweep prints each report as it is made, so its memory is the sieve's:
# a byte per integer below pmax and the list of members, about 30 MB at
# 10^7; a larger pmax is refused before sieving
FAMILY_PMAX_CAP = 10**7


def family_primes(pmax):
    """The primes 7 <= p < pmax with p = 7 (mod 8), read off every eighth
    byte of one sieve; DomainError when pmax exceeds FAMILY_PMAX_CAP."""
    if pmax > FAMILY_PMAX_CAP:
        raise DomainError(f"pmax = {pmax} is above the sweep cap {FAMILY_PMAX_CAP}")
    if pmax <= 7:
        return []
    return list(compress(range(7, pmax, 8), arith._sieve(pmax - 1)[7:pmax:8]))


# ---------------------------------------------------------------------------
# report assembly


class StratumReport(
    namedtuple(
        "StratumReport",
        "spec stratum exact_count estimate ratio_exact ratio_trig surjectivity odd_ramified "
        "unit_index_real norm_unit_index polarizations_per_variety",
    )
):
    """spec is the weil.IsogenyClassSpec; exact_count, estimate and
    polarizations_per_variety may be None."""

    __slots__ = ()


def _ec_odd_ramified(delta0):
    # a fundamental delta0 has an odd prime factor iff |delta0| is no power of 2
    n = abs(delta0)
    return "certified" if n & (n - 1) else "unknown"


def analyze(spec):
    """Stream of per-stratum reports for a validated simple ordinary class."""
    if not spec.ordinary:
        raise DomainError("isogeny class is not ordinary")
    if not spec.simple:
        raise DomainError("isogeny class is not simple")
    ratio = disc_ratio_exact(spec)
    trig = disc_ratio_trig(spec)
    if spec.n == 1:
        t = -spec.f[1]
        counts = ec_stratum_counts(t, spec.q)
        conductor = counts[-1][0]  # the last divisor of the conductor is itself
        odd = _ec_odd_ramified((t * t - 4 * spec.q) // conductor**2)
        reports = []
        for f, count in counts:
            reports.append(
                StratumReport(
                    spec=spec,
                    stratum=f"conductor-{f}",
                    exact_count=count,
                    estimate=None,
                    ratio_exact=ratio,
                    ratio_trig=trig,
                    surjectivity="certified",
                    odd_ramified=odd,
                    unit_index_real=1,
                    norm_unit_index="1" if odd == "certified" else "1 or 2",
                    polarizations_per_variety=1,
                )
            )
        return reports
    odd, surj = _certificates(spec)
    unit_index = real_unit_index(spec)
    return [
        StratumReport(
            spec=spec,
            stratum="minimal",
            exact_count=None,
            estimate=math.sqrt(ratio),
            ratio_exact=ratio,
            ratio_trig=trig,
            surjectivity=surj,
            odd_ramified=odd,
            unit_index_real=unit_index,
            norm_unit_index="1" if odd == "certified" else "1 or 2",
            polarizations_per_variety=unit_index if odd == "certified" else None,
        )
    ]


def _int_str(x):
    return None if x is None else str(int(x))


def report_to_json(report):
    """JSON-ready dict; integer counts as decimal strings."""
    spec = report.spec
    return {
        "weil": [str(c) for c in spec.f],
        "q": str(spec.q),
        "n": str(spec.n),
        "real_weil": [str(c) for c in spec.g],
        "angles": list(spec.angles),
        "stratum": report.stratum,
        "exact_count": _int_str(report.exact_count),
        "estimate": report.estimate,
        "ratio_exact": _int_str(report.ratio_exact),
        "ratio_trig": report.ratio_trig,
        "surjectivity": report.surjectivity,
        "odd_ramified": report.odd_ramified,
        "unit_index_real": _int_str(report.unit_index_real),
        "norm_unit_index": report.norm_unit_index,
        "polarizations_per_variety": _int_str(report.polarizations_per_variety),
    }
