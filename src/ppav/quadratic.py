"""Class numbers and unit norms of quadratic orders, by exact enumeration.

Imaginary class numbers count primitive reduced binary quadratic forms of
the fundamental discriminant by their first coefficient, then lift to the
conductor by the Euler product; the norm of a real fundamental unit is the
parity of one continued-fraction period.  Everything is integer
arithmetic, no floating point.

The count by first coefficient a <= sqrt(|delta0|/3) lives in flat
buffers: one bytearray of split-prime exponents, one byte per a, and one
array("H") of least prime factors below sqrt(amax), which factors the band
of a that needs square roots.  Both grow like sqrt(|delta0|), so the count
refuses |delta0| above MAX_CLASS_NUMBER_DISC before it allocates either.
"""

from itertools import compress
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


# N(a) of `_fundamental_class_number` as a split-prime exponent k, N(a) = 2^k,
# with the byte _DEAD = 255 for N(a) = 0: _INC adds one split prime and
# keeps _DEAD, _LIVE maps _DEAD to 0 and every k to 1
_DEAD = b"\xff"
_INC = bytes(range(1, 256)) + _DEAD
_LIVE = b"\x01" * 255 + b"\x00"

# The largest |delta0| whose class number is counted: at 10^14 one elliptic
# `ppav analyze` process takes 1.8-2.2 s and 37 MB peak RSS (Python 3.11,
# 2-vCPU shared host).  Below it sqrt(amax) < 2500, so the factor table
# fits an array("H").
MAX_CLASS_NUMBER_DISC = 10**14


def _fundamental_class_number(delta0):
    """h(delta0) for a fundamental discriminant delta0 < 0, counting the
    reduced forms (a, b, c) by their first coefficient a <= sqrt(|delta0|/3).

    Every form of a fundamental discriminant is primitive.  While 4 a^2 <
    |delta0|, every c exceeds a, so a carries one reduced form for each
    b in (-a, a] with b^2 = delta0 mod 4a: N(a) forms, N multiplicative with
    local factor 1 + chi(p) at every power of p, chi = (delta0 | .), except
    that a ramified p allows p but not p^2.  So N(a) is 0 or 2^k, k the
    number of split primes dividing a; one bytearray holds k (or _DEAD) for
    every a, updated by one slice per prime of a lazy sieve.  In the band of
    about 0.077 sqrt(|delta0|) larger a, only the b with c >= a count
    (b >= 0 when c = a); there the b come from local square roots joined by
    CRT, with each live a factored through one array of smallest prime
    factors below sqrt(amax), so nothing calls `arith.factorize`.

    DomainError, before anything is allocated, when |delta0| exceeds
    MAX_CLASS_NUMBER_DISC: memory grows like sqrt(|delta0|).
    """
    n = -delta0
    if n > MAX_CLASS_NUMBER_DISC:
        raise DomainError(
            f"class number needs |delta0| <= {MAX_CLASS_NUMBER_DISC}, got a "
            f"{n.bit_length()}-bit delta0"
        )
    from array import array  # here, not at import: no command start-up pays it

    amax = isqrt(n // 3)
    afree = isqrt((n - 1) // 4)  # the largest a with 4 a^2 < n
    root = isqrt(amax)
    sieve = arith._sieve(amax)
    ex = bytearray(amax + 1)
    for p in compress(range(amax + 1), sieve):
        # Euler's criterion at odd p: 1 split, p - 1 inert, 0 ramified
        chi = pow(delta0, p >> 1, p) if p > 2 else arith.kronecker_symbol(delta0, 2)
        if chi == 1:
            ex[p::p] = ex[p::p].translate(_INC)
        elif chi:
            ex[p::p] = _DEAD * (amax // p)
        else:
            ex[p * p :: p * p] = _DEAD * (amax // (p * p))
    del sieve
    h, k, left = 0, 0, afree - ex.count(_DEAD, 1, afree + 1)
    while left:
        count = ex.count(k, 1, afree + 1)
        h += count << k
        left -= count
        k += 1
    # spf[m]: the least prime factor of m below sqrt(amax) when m is
    # composite, 0 when m is 1 or prime; descending slices leave the least
    spf = array("H", bytes(2 * (amax + 1)))
    for p in reversed(arith._prime_sieve(root)):
        start = p * p
        spf[start::p] = array("H", [p]) * len(range(start, amax + 1, p))
    local = {}
    for a in compress(range(afree + 1, amax + 1), ex[afree + 1 :].translate(_LIVE)):
        # b mod 2a, joined prime by prime; b = delta0 mod 2 when a is odd
        roots, mod = ([delta0 % 2], 2) if a % 2 else ([0], 1)
        m = a
        while m > 1:
            p = spf[m] or m
            k, m = 1, m // p
            while m % p == 0:
                k, m = k + 1, m // p
            if p > root:  # seldom met twice in the band: not kept
                rs, pk = _local_roots(delta0, p, k)
            elif (p, k) in local:
                rs, pk = local[p, k]
            else:
                rs, pk = local[p, k] = _local_roots(delta0, p, k)
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
    """r with r^2 = a mod p, for an odd prime p and a nonzero square a mod p:
    one power for p = 3 mod 4, Atkin's formula for p = 5 mod 8, and
    Tonelli-Shanks only for p = 1 mod 8."""
    a %= p
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    if p % 8 == 5:
        v = pow(2 * a, (p - 5) // 8, p)
        return a * v * (2 * a * v * v - 1) % p
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, p >> 1, p) != p - 1:
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
    """r with r^2 = d mod ell^k, for an odd prime ell with (d | ell) = 1."""
    r = _sqrt_mod_prime(d, ell)
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

