"""Reference oracle for imaginary class numbers.

`quadratic._fundamental_class_number` keeps its counts and the band's
square-root data in flat buffers; the tests check it against the
list-based count kept here, which holds N(a) in a Python list, gives every
band coefficient a a Python list of the primes a sieve marks on it, and
checks Euler's criterion again in every modular square root.  The count
itself is the same: reduced forms (a, b, c) of a fundamental discriminant,
by their first coefficient.  `_sqrt_mod_2k` is shared with the package.
"""

from math import isqrt

from ppav import arith
from ppav.quadratic import _sqrt_mod_2k


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


def fundamental_class_number(delta0):
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
