"""Class groups and units of quadratic orders, by exact enumeration.

Imaginary class numbers count primitive reduced binary quadratic forms of
the fundamental discriminant by their first coefficient, then lift to the
conductor by the Euler product; real narrow class numbers count cycles of
reduced indefinite forms;
fundamental units come from continued fractions.  Everything is integer
arithmetic, no floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt

from . import arith
from .errors import DomainError, InternalError


def check_discriminant(delta):
    if delta % 4 not in (0, 1):
        raise DomainError(f"{delta} is not 0 or 1 mod 4")


def is_fundamental(delta):
    if delta == 1 or delta == 0:
        return False
    if delta % 4 == 1:
        s, f = arith.squarefree_decompose(abs(delta))
        return f == 1
    if delta % 4 == 0:
        m = delta // 4
        s, f = arith.squarefree_decompose(abs(m))
        return f == 1 and m % 4 in (2, 3)
    return False


def fundamental_decomposition(delta):
    """delta = F^2 * delta0 with delta0 a fundamental discriminant.

    Works for positive and negative nonsquare discriminants.
    """
    check_discriminant(delta)
    if delta == 0:
        raise DomainError("discriminant must be nonzero")
    sign = 1 if delta > 0 else -1
    s, f = arith.squarefree_decompose(abs(delta))
    d = sign * s
    if d % 4 == 1:
        return d, f
    if f % 2 != 0:
        raise InternalError("discriminant decomposition lost a factor of 2")
    return 4 * d, f // 2


@dataclass(frozen=True)
class QuadDiscriminant:
    delta: int
    delta0: int
    conductor: int


def quad_discriminant(delta):
    d0, f = fundamental_decomposition(delta)
    return QuadDiscriminant(delta=delta, delta0=d0, conductor=f)


@dataclass(frozen=True)
class QuadClassData:
    """Class-group data of one quadratic order.

    Imaginary orders carry h and the Kronecker number H >= h; real orders
    carry h, the narrow number hplus in {h, 2h}, and the fundamental unit
    with its norm.
    """

    disc: QuadDiscriminant
    h: int
    hplus: int | None = None
    H: int | None = None
    fundamental_unit: "RealQuadElement | None" = None
    unit_norm: int | None = None


# ---------------------------------------------------------------------------
# imaginary quadratic class numbers


def _local_roots(delta0, p, k):
    """The b with b^2 = delta0 at the prime power p^k exactly dividing a, as
    (roots, modulus): b mod 2^(k+1) with b^2 = delta0 mod 2^(k+2) for p = 2,
    b mod p^k with b^2 = delta0 mod p^k for odd p.  Called only where such
    b exist, so p is split, or ramified with k = 1 (k = 1 at p = 2 when 4
    divides delta0, since then delta0 / 4 = 2 or 3 mod 4).
    """
    if p == 2:
        if delta0 % 2 == 0:
            return [delta0 // 2 % 4], 4
        mod = 2 << k
        r = _sqrt_mod_2k(delta0, k + 2) % mod
        return [r, mod - r], mod
    if delta0 % p == 0:
        return [0], p
    mod = p**k
    r = _hensel_sqrt(delta0, p, k)
    return [r, mod - r], mod


def _fundamental_class_number(delta0):
    """h(delta0) for a fundamental discriminant delta0 < 0, counting the
    reduced forms (a, b, c) by their first coefficient a <= sqrt(|delta0|/3).

    Every form of a fundamental discriminant is primitive.  While 4 a^2 <
    |delta0|, every c exceeds a, so a carries one reduced form for each
    b in (-a, a] with b^2 = delta0 mod 4a: N(a) forms, N multiplicative with
    local factor 1 + chi(p) at every power of p, chi = (delta0 | .), except
    that a ramified p allows p but not p^2.  One prime sieve fills N by a
    slice update per prime.  In the band of about 0.077 sqrt(|delta0|)
    larger a, only the b with c >= a count (b >= 0 when c = a); there the b
    come from local square roots joined by CRT, with a factored by the
    primes the same sieve marked on it, so nothing calls `arith.factorize`.
    """
    n = -delta0
    amax = isqrt(n // 3)
    afree = isqrt((n - 1) // 4)  # the largest a with 4 a^2 < n
    counts = [1] * (amax + 1)  # N(a)
    band = [[] for _ in range(afree, amax)]  # primes of a, afree < a <= amax
    for p in arith._prime_sieve(amax):
        # Euler's criterion at odd p: 1 split, p - 1 inert, 0 ramified
        chi = pow(delta0, p >> 1, p) if p > 2 else arith.kronecker_symbol(delta0, 2)
        if chi == 1:
            counts[p::p] = [2 * c for c in counts[p::p]]
        elif chi:
            counts[p::p] = [0] * (amax // p)
            continue
        else:
            counts[p * p :: p * p] = [0] * (amax // (p * p))
        for a in range(afree + p - afree % p, amax + 1, p):
            band[a - afree - 1].append(p)
    h = sum(counts[1 : afree + 1])
    local = {}
    for a, primes in zip(range(afree + 1, amax + 1), band):
        if not counts[a]:
            continue
        # b mod 2a, joined prime by prime; b = delta0 mod 2 when a is odd
        roots, mod = ([delta0 % 2], 2) if a % 2 else ([0], 1)
        for p in primes:
            k, m = 1, a // p
            while m % p == 0:
                k, m = k + 1, m // p
            if (p, k) not in local:
                local[p, k] = _local_roots(delta0, p, k)
            rs, pk = local[p, k]
            inv = pow(mod, -1, pk)
            roots = [s + mod * ((r - s) * inv % pk) for s in roots for r in rs]
            mod *= pk
        low = 4 * a * a - n  # c >= a iff b^2 >= low
        for b in roots:
            if b > a:
                b -= 2 * a
            if b * b > low or b * b == low and b >= 0:
                h += 1
    return h


def class_number_imaginary(delta):
    """Number of primitive reduced forms (a, b, c) of discriminant delta < 0.

    Reduced: |b| <= a <= c with b >= 0 whenever |b| = a or a = c.  Splits
    delta = f^2 delta0, counts the forms of the fundamental delta0 by their
    first coefficient (`_fundamental_class_number`) and lifts the count to
    conductor f by the Euler product of `class_number_by_formula`.
    """
    if delta >= 0:
        raise DomainError("need a negative discriminant")
    check_discriminant(delta)
    delta0, f = fundamental_decomposition(delta)
    h0 = _fundamental_class_number(delta0)
    return h0 if f == 1 else _formula_from_h0(delta0, h0, f)


def _unit_index(delta0, f):
    if f == 1:
        return 1
    if delta0 == -3:
        return 3
    if delta0 == -4:
        return 2
    return 1


def _formula_from_h0(delta0, h0, f):
    num = h0 * f
    den = 1
    for p in arith.factorize(f):
        num *= p - arith.kronecker_symbol(delta0, p)
        den *= p
    den *= _unit_index(delta0, f)
    if num % den != 0:
        raise InternalError("class number formula did not produce an integer")
    return num // den


def class_number_by_formula(delta0, f):
    """h(f^2 delta0) from h(delta0) and the conductor Euler product.

    h(f^2 d0) = h(d0) * f * prod_{p | f} (1 - chi(p)/p) / w, where chi is
    the Kronecker character (d0 | .) and w is the unit-group index: 3 for
    d0 = -3, 2 for d0 = -4 (when f > 1), and 1 otherwise.
    """
    if delta0 >= 0:
        raise DomainError("need a negative fundamental discriminant")
    if not is_fundamental(delta0):
        raise DomainError(f"{delta0} is not a fundamental discriminant")
    if f < 1:
        raise DomainError("conductor must be positive")
    return _formula_from_h0(delta0, _fundamental_class_number(delta0), f)


def stratified_class_numbers(delta):
    """[(f, h(f^2 delta0))] over all divisors f of the conductor of delta < 0."""
    if delta >= 0:
        raise DomainError("need a negative discriminant")
    disc = quad_discriminant(delta)
    h0 = _fundamental_class_number(disc.delta0)
    return [
        (f, _formula_from_h0(disc.delta0, h0, f))
        for f in arith.divisors(disc.conductor)
    ]


def kronecker_class_number(delta):
    """H(delta): the sum of h(f^2 delta0) over all divisors f of the conductor."""
    return sum(h for _, h in stratified_class_numbers(delta))


def h_over_H_bound(delta):
    """(h(delta)/H(delta), prod_{p | F} (p+1)/(p+2)) as exact Fractions.

    The ratio is at most the bound whenever delta0 < -4.
    """
    strata = stratified_class_numbers(delta)
    conductor, h = strata[-1]  # the last divisor of the conductor is itself
    ratio = Fraction(h, sum(count for _, count in strata))
    bound = Fraction(1)
    for p in arith.factorize(conductor):
        bound *= Fraction(p + 1, p + 2)
    if delta // conductor**2 < -4 and ratio > bound:
        raise InternalError(f"h/H bound violated at delta={delta}")
    return ratio, bound


# ---------------------------------------------------------------------------
# real quadratic orders: fundamental units


@dataclass(frozen=True)
class RealQuadElement:
    """a + b sqrt(d) with rational a, b and a squarefree radicand d > 1."""

    a: Fraction
    b: Fraction
    d: int

    def norm(self):
        return self.a * self.a - self.b * self.b * self.d

    def __mul__(self, other):
        if self.d != other.d:
            raise DomainError("mixed radicands")
        return RealQuadElement(
            self.a * other.a + self.b * other.b * self.d,
            self.a * other.b + self.b * other.a,
            self.d,
        )


def _pell_unit(n):
    """Fundamental solution of x^2 - n y^2 = +-1 via the continued fraction
    of sqrt(n); returns (x, y, norm)."""
    a0 = isqrt(n)
    if a0 * a0 == n:
        raise DomainError("radicand is a perfect square")
    h_prev, h = 1, a0
    k_prev, k = 0, 1
    p, q = 0, 1
    a = a0
    while True:
        p = a * q - p
        q = (n - p * p) // q
        a = (a0 + p) // q
        if q == 1:
            norm = h * h - n * k * k
            if norm not in (1, -1):
                raise InternalError("continued fraction did not close on a unit")
            return h, k, norm
        h_prev, h = h, a * h + h_prev
        k_prev, k = k, a * k + k_prev


def _fundamental_unit_maximal(d0):
    """Fundamental unit (t + u sqrt(d0))/2 of the maximal order of fundamental
    discriminant d0 > 0; returns (t, u, norm)."""
    if d0 % 4 == 0:
        x, y, norm = _pell_unit(d0 // 4)
        return 2 * x, y, norm
    # d0 = 1 mod 4: the unit of Z[sqrt(d0)] is the full unit or its cube.
    # If eps = (t + u sqrt(d0))/2 has norm n0 and eps^3 = x + y sqrt(d0),
    # then t^3 - 3 n0 t = 2x; cubing preserves the norm sign, so n0 = norm.
    x, y, norm = _pell_unit(d0)
    target = 2 * x
    guess = arith._iroot(target, 3)
    for t in (guess - 1, guess, guess + 1, guess + 2):
        if t <= 0:
            continue
        if t * t * t - 3 * norm * t != target:
            continue
        usq_num = t * t - 4 * norm
        if usq_num <= 0 or usq_num % d0 != 0:
            continue
        usq = usq_num // d0
        u = isqrt(usq)
        if u * u == usq and u > 0:
            return t, u, norm
    return 2 * x, 2 * y, norm


def fundamental_unit(order_disc):
    """Fundamental unit > 1 of the real quadratic order of this discriminant.

    Returns (RealQuadElement, norm).  For a non-maximal order this is the
    smallest power of the maximal-order unit lying in the order.
    """
    if order_disc <= 0:
        raise DomainError("need a positive discriminant")
    check_discriminant(order_disc)
    if isqrt(order_disc) ** 2 == order_disc:
        raise DomainError("square discriminant does not define a real order")
    d0, conductor = fundamental_decomposition(order_disc)
    t, u, norm0 = _fundamental_unit_maximal(d0)
    # an element (t_k + u_k sqrt(d0))/2 lies in the order of conductor F
    # exactly when F divides u_k
    t_k, u_k, norm_k = t, u, norm0
    steps = 0
    while u_k % conductor != 0:
        t_k, u_k = (t * t_k + d0 * u * u_k) // 2, (t * u_k + u * t_k) // 2
        norm_k *= norm0
        steps += 1
        if steps > 10_000_000:
            raise InternalError("unit power search ran away")
    rad = d0 if d0 % 4 == 1 else d0 // 4
    scale = 1 if d0 % 4 == 1 else 2  # sqrt(d0) = scale * sqrt(rad)
    unit = RealQuadElement(Fraction(t_k, 2), Fraction(u_k * scale, 2), rad)
    return unit, norm_k


# ---------------------------------------------------------------------------
# cycles of reduced indefinite forms


def _is_reduced_indefinite(a, b, c, delta):
    # reduced iff 0 < b < sqrt(delta) and |sqrt(delta) - 2|a|| < b
    if b <= 0 or b * b >= delta:
        return False
    t = 2 * abs(a)
    below = (t - b) <= 0 or (t - b) ** 2 < delta
    above = delta < (t + b) ** 2
    return below and above


def _rho(a, b, c, delta):
    """Reduction step (a,b,c) -> (c, r, (r^2 - delta)/(4c)) with r the residue
    of -b mod 2|c| pushed into (sqrt(delta) - 2|c|, sqrt(delta))."""
    ac = abs(c)
    s = isqrt(delta)
    r = -b + 2 * ac * ((s + b) // (2 * ac))
    cc = (r * r - delta) // (4 * c)
    return c, r, cc


def reduced_indefinite_forms(delta):
    """All primitive reduced indefinite forms of nonsquare discriminant delta > 0."""
    s = isqrt(delta)
    forms = set()
    for b in range(2 - delta % 2, s + 1, 2):
        m = (delta - b * b) // 4  # |a c| with a c < 0
        if m <= 0:
            continue
        for a in arith.divisors(m):
            c = -(m // a)
            for aa, cc in ((a, c), (-a, -c)):
                if gcd(gcd(abs(aa), b), abs(cc)) != 1:
                    continue
                if _is_reduced_indefinite(aa, b, cc, delta):
                    forms.add((aa, b, cc))
    return forms


def class_numbers_real(order_disc):
    """(h, hplus) for the real quadratic order of the given discriminant.

    hplus counts cycles of primitive reduced indefinite forms under the
    reduction step; h equals hplus when the fundamental unit has norm -1
    and hplus/2 otherwise.
    """
    if order_disc <= 0:
        raise DomainError("need a positive discriminant")
    check_discriminant(order_disc)
    if isqrt(order_disc) ** 2 == order_disc:
        raise DomainError("square discriminant")
    delta = order_disc
    forms = reduced_indefinite_forms(delta)
    cycles = 0
    seen = set()
    for form in sorted(forms):
        if form in seen:
            continue
        cycles += 1
        cur = form
        while True:
            seen.add(cur)
            cur = _rho(*cur, delta)
            if cur == form:
                break
            if cur in seen:
                raise InternalError("reduction step walked into a foreign cycle")
    _, norm = fundamental_unit(order_disc)
    if norm == -1:
        h = cycles
    else:
        if cycles % 2 != 0:
            raise InternalError("expected an even cycle count for norm +1")
        h = cycles // 2
    return h, cycles


# ---------------------------------------------------------------------------
# square roots modulo prime powers


def _sqrt_mod_prime(a, p):
    a %= p
    if a == 0:
        return 0
    if pow(a, p >> 1, p) != 1:  # Euler's criterion, p an odd prime
        return None
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while arith.kronecker_symbol(z, p) != -1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c, t, r = i, b * b % p, t * b * b % p, r * b % p
    return r


def _hensel_sqrt(d, ell, k):
    """r with r^2 = d mod ell^k for odd ell not dividing d."""
    r = _sqrt_mod_prime(d, ell)
    if r is None or r == 0:
        return None
    mod = ell
    target = ell**k
    while mod < target:
        mod = min(mod * mod, target)
        inv = pow(2 * r % mod, -1, mod)
        r = (r - (r * r - d) * inv) % mod
    return r % target


def _sqrt_mod_2k(d, k):
    """r with r^2 = d mod 2^k, for d = 1 mod 8 and k >= 3."""
    r = 1
    for j in range(3, k):
        if (r * r - d) % (1 << (j + 1)):
            r += 1 << (j - 1)
    return r % (1 << k)


def quad_class_data(delta):
    """Assembled QuadClassData for the order of discriminant delta."""
    disc = quad_discriminant(delta)
    if delta < 0:
        strata = stratified_class_numbers(delta)
        return QuadClassData(disc=disc, h=strata[-1][1], H=sum(count for _, count in strata))
    h, hplus = class_numbers_real(delta)
    unit, norm = fundamental_unit(delta)
    return QuadClassData(disc=disc, h=h, hplus=hplus, fundamental_unit=unit, unit_norm=norm)
