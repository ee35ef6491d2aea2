"""Class numbers and unit norms of quadratic orders, by exact enumeration.

Imaginary class numbers count primitive reduced binary quadratic forms of
the fundamental discriminant by their first coefficient, then lift to the
conductor by the Euler product; the norm of a real fundamental unit is the
parity of one continued-fraction period.  Everything is integer
arithmetic, no floating point.
"""

from math import isqrt

from . import arith
from .errors import DomainError, InternalError


def check_discriminant(delta):
    if delta % 4 not in (0, 1):
        raise DomainError(f"{delta} is not 0 or 1 mod 4")


def is_fundamental(delta):
    return delta % 4 in (0, 1) and delta not in (0, 1) and fundamental_decomposition(delta)[1] == 1


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
    delta0, conductor = fundamental_decomposition(delta)
    h0 = _fundamental_class_number(delta0)
    return [(f, _formula_from_h0(delta0, h0, f)) for f in arith.divisors(conductor)]


def kronecker_class_number(delta):
    """H(delta): the sum of h(f^2 delta0) over all divisors f of the conductor."""
    return sum(h for _, h in stratified_class_numbers(delta))


def h_over_H_bound(delta):
    """(h(delta)/H(delta), prod_{p | F} (p+1)/(p+2)) as exact Fractions.

    The ratio is at most the bound whenever delta0 < -4.
    """
    from fractions import Fraction

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
# real quadratic orders: the norm of the fundamental unit


def unit_norm(delta):
    """Norm, +1 or -1, of the fundamental unit of the real quadratic order of
    discriminant delta.

    The norm is (-1)^l, l the period of the purely periodic continued
    fraction of (b + sqrt(delta))/2, b the largest integer below sqrt(delta)
    with b = delta mod 2 (Cohen, GTM 138, section 5.7).  Every complete
    quotient (p + sqrt(delta))/q of that expansion is reduced, and b is the
    only p a reduced quotient with q = 2 can have, so the period ends at the
    first return of q to 2.
    """
    if delta <= 0:
        raise DomainError("need a positive discriminant")
    check_discriminant(delta)
    s = isqrt(delta)
    if s * s == delta:
        raise DomainError("square discriminant does not define a real order")
    b = s - (s - delta) % 2
    p, q, period = b, 2, 0
    while True:
        p = (p + s) // q * q - p
        q = (delta - p * p) // q
        period += 1
        if q == 2:
            return -1 if period % 2 else 1


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

