"""Weil polynomials, isogeny-class validation, and Frobenius angles.

A degree-2n monic integer polynomial f is treated as the characteristic
polynomial of Frobenius for an isogeny class of n-dimensional abelian
varieties over F_q.  `isogeny_class` is the one entry point, for n <= 2
(UnsupportedDegree above): it decides validity (all complex roots of
absolute value sqrt(q)) exactly, raising NotWeilShape when it fails, and
returns the whole class record: Frobenius angles, ordinarity, simplicity
and the two discriminant norms, each decided once there.  f must satisfy
x^2n f(q/x) = q^n f(x), and the real companion polynomial g with
x^n g(x + q/x) = f(x) must have all roots real and inside
[-2 sqrt(q), 2 sqrt(q)].

Both cases are closed forms.  An elliptic f = x^2 + f_1 x + q has
g = x + f_1, Weil iff f_1^2 <= 4q, with the integer root -f_1.  For a
quadratic g = x^2 + Bx + C (the surfaces; compare Maisner-Nart 2002) the
test is D = B^2 - 4C >= 0, B^2 <= 16q and
g(+-2 sqrt(q)) = 4q + C +- 2B sqrt(q) >= 0, integer comparisons in
Z[sqrt(q)].  A square D gives the integer roots (-B -+ sqrt(D)) / 2; any
other D gives irrational roots, which `arith.quadratic_real_roots` refines
from two integer square roots to well below 1e-14.
"""

import math
from collections import namedtuple
from math import comb, gcd, isqrt

from . import arith
from .errors import DomainError, NotWeilShape, UnsupportedDegree


class IsogenyClassSpec(
    namedtuple("IsogenyClassSpec", "f q n g angles ordinary simple discriminant_norms")
):
    """A validated Weil polynomial with its derived data, built by `isogeny_class`.

    f: monic degree-2n integer polynomial, ascending coefficients.
    g: the real companion polynomial, monic of degree n.
    angles: the n Frobenius angles in [0, pi], ascending.
    ordinary: the middle coefficient f_n is coprime to q.
    simple: f is irreducible over Q.
    discriminant_norms: (|N(alpha^2 - 4q)|, |disc g|), alpha a root of g.
    """

    __slots__ = ()


def real_weil_polynomial(f, q):
    """The monic degree-n polynomial g with x^n g(x + q/x) = f(x).

    Existence of g is equivalent to the functional equation
    x^2n f(q/x) = q^n f(x); raises NotWeilShape otherwise.
    """
    f = arith.poly_trim(f)
    deg = len(f) - 1
    if deg < 2 or deg % 2 != 0 or f[-1] != 1:
        raise NotWeilShape("need a monic polynomial of even degree >= 2")
    n = deg // 2
    if n == 2:
        # f = x^4 + a x^3 + b x^2 + c x + d = x^2 g(x + q/x) iff d = q^2 and c = a q
        if f[0] != q * q or f[1] != f[3] * q:
            raise NotWeilShape("functional equation x^2n f(q/x) = q^n f(x) fails")
        return [f[2] - 2 * q, f[3], 1]
    return _real_weil_by_expansion(f, n, q)


def _real_weil_by_expansion(f, n, q):
    """g for a trimmed monic f of degree 2n, subtracting g_k x^n (x + q/x)^k
    from the top; any n, and the oracle of the n = 2 read-off."""
    rem = list(f)
    g = [0] * (n + 1)
    for k in range(n, -1, -1):
        coeff = rem[n + k] if n + k < len(rem) else 0
        g[k] = coeff
        if coeff != 0:
            # subtract coeff * x^n (x + q/x)^k
            expansion = [0] * (n + k + 1)
            for j in range(k + 1):
                expansion[n + k - 2 * j] += comb(k, j) * q**j
            rem = arith.poly_sub(rem, arith.poly_scale(expansion, coeff))
            rem = list(rem)
    if arith.poly_trim(rem):
        raise NotWeilShape("functional equation x^2n f(q/x) = q^n f(x) fails")
    return arith.poly_trim(g)


def _even_odd_at(p, q):
    """(E(4q), O(4q)) for p(x) = E(x^2) + x O(x^2), so p(s 2 sqrt(q)) = E + s 2 sqrt(q) O."""
    return arith.poly_eval(p[0::2], 4 * q), arith.poly_eval(p[1::2], 4 * q)


def delta_norm(g, q):
    """|N(alpha^2 - 4q)| = |g(2 sqrt(q)) g(-2 sqrt(q))| = |E^2 - 4q O^2|, alpha a root of g."""
    even, odd = _even_odd_at(g, q)
    return abs(even * even - 4 * q * odd * odd)


def real_discriminant_norms(g, q):
    """(|N(alpha^2 - 4q)|, |disc g|) for alpha a root of the linear or
    quadratic monic real Weil polynomial g: disc g is 1 for linear g and
    B^2 - 4C for g = x^2 + Bx + C.
    """
    disc = 1 if len(g) == 2 else g[1] * g[1] - 4 * g[0]
    return delta_norm(g, q), abs(disc)


def _sign_plus_root(a, b, q):
    """Exact sign of a + b*sqrt(q) for integers a, b and q > 0."""
    if b == 0:
        return (a > 0) - (a < 0)
    if a == 0:
        return (b > 0) - (b < 0)
    if a > 0 and b > 0:
        return 1
    if a < 0 and b < 0:
        return -1
    # opposite signs - compare a^2 with b^2 q
    lhs, rhs = a * a, b * b * q
    if lhs == rhs:
        return 0
    big_is_a = lhs > rhs
    if a > 0:
        return 1 if big_is_a else -1
    return -1 if big_is_a else 1


def _quadratic_in_weil_region(c, b, q):
    """Closed-form Weil test for g = x^2 + b x + c: real roots, the vertex
    -b/2 and both values g(+-2 sqrt(q)) = 4q + c +- 2b sqrt(q) in range.
    """
    return (
        b * b >= 4 * c
        and b * b <= 16 * q
        and _sign_plus_root(4 * q + c, 2 * b, q) >= 0
        and _sign_plus_root(4 * q + c, -2 * b, q) >= 0
    )


def is_simple(f):
    """Irreducibility over Q for monic integer polynomials of degree <= 4."""
    f = arith.poly_trim(f)
    deg = len(f) - 1
    if deg > 4:
        raise UnsupportedDegree("irreducibility test implemented up to degree 4")
    if f[-1] != 1:
        raise DomainError("need a monic polynomial")
    if deg <= 1:
        return deg == 1
    if f[0] == 0:
        return False
    # monic, so rational roots are integers dividing the constant term
    divs = _signed_divisors(f[0])
    if any(arith.poly_eval(f, r) == 0 for r in divs):
        return False
    if deg < 4:
        return True
    # look for f = (x^2 + u x + v)(x^2 + w x + z) over Z, and the same with
    # both factors negated (covered by v z = f0 with sign choices)
    f0, f1, f2, f3 = f[0], f[1], f[2], f[3]
    for v in divs:
        z = f0 // v
        # u + w = f3, u z + v w = f1, v + z + u w = f2
        if z != v:
            num = f1 - f3 * v
            den = z - v
            if num % den != 0:
                continue
            u = num // den
            w = f3 - u
            if v + z + u * w == f2:
                return False
        else:
            # u + w = f3 and v(u + w) = f1 force v f3 = f1
            if v * f3 != f1:
                continue
            # u w = f2 - 2v with u + w = f3
            disc = f3 * f3 - 4 * (f2 - 2 * v)
            if disc >= 0 and isqrt(disc) ** 2 == disc:
                return False
    return True


def _signed_divisors(n):
    out = []
    for d in arith.divisors(abs(n)):
        out.append(d)
        out.append(-d)
    return out


def _weil_roots(g, q):
    """The roots of g as (den, numerators), ascending and with multiplicity,
    or None when g is not Weil.

    A linear g = x + c is Weil iff c^2 <= 4q, and its root is -c.  A
    quadratic g = x^2 + b x + c must pass `_quadratic_in_weil_region`; when
    D = b^2 - 4c is a square its roots are the integers (-b -+ sqrt(D)) / 2,
    one root twice when D = 0, and otherwise `arith.quadratic_real_roots`
    refines them over a power of two.  Integer roots have den 1.  Both
    g(+-2 sqrt(q)) >= 0 tests are exact, so a root on the rim is Weil.
    """
    if len(g) == 2:
        return (1, [-g[0]]) if g[0] * g[0] <= 4 * q else None
    c, b, _ = g
    if not _quadratic_in_weil_region(c, b, q):
        return None
    disc = b * b - 4 * c
    s = isqrt(disc)
    if s * s == disc:
        return 1, [(-b - s) // 2, (-b + s) // 2]
    # the refinement bracket is as wide as the coefficient bound, so pay for
    # its bit length to keep the absolute root error near 2^-64
    return arith.quadratic_real_roots(g, 64 + max(abs(c), abs(b), 1).bit_length())


def _angles(roots, q):
    """arccos(r / 2 sqrt(q)) for the roots (den, numerators), ascending.

    Int true division rounds correctly, so n / den is the double nearest
    the exact root.
    """
    den, nums = roots
    try:
        two_sqrt_q = 2.0 * math.sqrt(q)
    except OverflowError:
        raise DomainError(f"q of {q.bit_length()} bits is too large for float angles") from None
    return sorted(math.acos(min(1.0, max(-1.0, n / den / two_sqrt_q))) for n in nums)


def isogeny_class(f, q):
    """Validate f as the Weil polynomial of an isogeny class over F_q, n <= 2."""
    f = tuple(arith.poly_trim(f))
    if arith.is_prime_power(q) is None:
        raise DomainError(f"q = {q} is not a prime power")
    if not f or f[-1] != 1 or (len(f) - 1) % 2 != 0 or len(f) < 3:
        raise NotWeilShape("need a monic polynomial of even degree >= 2")
    n = (len(f) - 1) // 2
    if n > 2:
        raise UnsupportedDegree("isogeny classes are implemented up to degree 4")
    try:
        g = real_weil_polynomial(f, q)
        roots = _weil_roots(g, q)
    except NotWeilShape:
        roots = None
    if roots is None:
        raise NotWeilShape("roots are not all of absolute value sqrt(q)")
    g = tuple(g)
    norms = real_discriminant_norms(g, q)
    # f is irreducible over Q in closed form.  n = 1: disc f = f_1^2 - 4q <= 0
    # is a square iff it is 0.  n = 2: a square disc g splits g and so f;
    # else f splits iff alpha^2 - 4q, alpha a root of g, is a square in
    # Q(alpha).  It is totally nonpositive, so only alpha^2 = 4q, g = x^2 - 4q,
    # splits f, into (x^2 - q)^2 (compare Maisner-Nart 2002).
    if n == 1:
        simple = f[1] ** 2 != 4 * q
    else:
        simple = isqrt(norms[1]) ** 2 != norms[1] and g != (-4 * q, 0, 1)
    return IsogenyClassSpec(
        f=f, q=q, n=n, g=g, angles=tuple(_angles(roots, q)),
        ordinary=gcd(f[n], q) == 1, simple=simple, discriminant_norms=norms,
    )


def random_surface_spec(rng, qmax=10_000, require_ordinary=True, require_simple=True):
    """Random valid n=2 isogeny class over F_q, q prime, by rejection.

    Samples integer (a, b) uniformly over the region where the companion
    g = x^2 + a x + (b - 2q) has two distinct real roots strictly inside
    (-2 sqrt(q), 2 sqrt(q)).
    """
    while True:
        q = rng.randrange(3, qmax + 1)
        if not arith.is_prime(q):
            continue
        s = isqrt(4 * q)
        a = rng.randrange(-2 * s - 1, 2 * s + 2)
        c = rng.randrange(-6 * q, 6 * q + 1)
        if a * a - 4 * c <= 0:
            continue
        if a * a >= 16 * q:
            continue
        if _sign_plus_root(4 * q + c, 2 * a, q) <= 0:
            continue
        if _sign_plus_root(4 * q + c, -2 * a, q) <= 0:
            continue
        b = c + 2 * q
        spec = isogeny_class((q * q, a * q, b, a, 1), q)
        if (require_ordinary and not spec.ordinary) or (require_simple and not spec.simple):
            continue
        return spec
