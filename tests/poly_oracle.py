"""Reference oracles for real roots and the squarefree split of integer polynomials.

The Frobenius angles of `ppav.weil` come from closed forms.  The oracle
here is the general path they replaced: Yun's squarefree decomposition
(Yun 1976) on top of a primitive-remainder gcd, then integer Sturm
chains that isolate each factor's real roots by bisecting the Cauchy
bracket and refine them to dyadic ``Fraction``s.  `weil_angles` turns
those roots into angles as the package does, so the two agree bit for
bit.
"""

import math
from fractions import Fraction
from math import gcd, lcm

from ppav import arith
from ppav.errors import DomainError


def poly_derivative(a):
    return arith.poly_trim([i * c for i, c in enumerate(a)][1:])


def poly_primitive(a):
    """Primitive part with positive leading coefficient."""
    a = arith.poly_trim(a)
    if not a:
        return []
    g = gcd(*a) if a[-1] > 0 else -gcd(*a)
    return [c // g for c in a]


def pseudo_rem(a, b):
    """Remainder of a by b times a positive power of |lc(b)|, over the integers."""
    r = arith.poly_trim(a)
    db = len(b) - 1
    lb = abs(b[-1])
    sb = 1 if b[-1] > 0 else -1
    while r and len(r) - 1 >= db:
        shift = len(r) - 1 - db
        r = arith.poly_sub(arith.poly_scale(r, lb), arith.poly_scale([0] * shift + list(b), sb * r[-1]))
    return r


def poly_divmod_exact(a, b):
    """Long division of integer polynomials when the quotient is integral."""
    b = arith.poly_trim(b)
    rem = arith.poly_trim(a)
    lead = b[-1]
    db = len(b) - 1
    quot = [0] * max(0, len(rem) - db)
    while rem and len(rem) - 1 >= db:
        c = rem[-1]
        assert c % lead == 0, "inexact polynomial division"
        shift = len(rem) - 1 - db
        quot[shift] = c // lead
        rem = arith.poly_sub(rem, arith.poly_scale([0] * shift + list(b), c // lead))
    return arith.poly_trim(quot), rem


def poly_gcd(a, b):
    """Primitive gcd of integer polynomials, positive leading coefficient."""
    a, b = poly_primitive(a), poly_primitive(b)
    while b:
        if len(a) < len(b):
            a, b = b, a
            continue
        r = pseudo_rem(a, b)
        a, b = b, poly_primitive(r)
    return a


def yun_decomposition(a):
    """Yun decomposition [(factor, multiplicity)] with a ~ prod f_i^i.

    Runs over the integers: every division is by a primitive gcd, so by
    Gauss's lemma each quotient is integral, and w and y stay scaled alike.
    """
    a = poly_primitive(a)
    if len(a) <= 2:
        return [(a, 1)] if len(a) == 2 else []
    da = poly_derivative(a)
    g = poly_gcd(a, da)
    if len(g) <= 1:
        return [(a, 1)]
    out = []
    w, _ = poly_divmod_exact(a, g)
    y, _ = poly_divmod_exact(da, g)
    z = arith.poly_sub(y, poly_derivative(w))
    i = 1
    while len(w) > 1:
        h = poly_gcd(w, z)
        if len(h) > 1:
            out.append((h, i))
        w, _ = poly_divmod_exact(w, h)
        y, _ = poly_divmod_exact(z, h)
        z = arith.poly_sub(y, poly_derivative(w))
        i += 1
    return out


def _positive_part(a):
    """a divided by its content, keeping the sign of every coefficient."""
    g = gcd(*a)
    return [c // g for c in a] if g > 1 else a


def sturm_chain(a):
    """Integer Sturm chain of a, each term a positive multiple of the classical one."""
    chain = [arith.poly_trim(a)]
    chain.append(_positive_part(poly_derivative(chain[0])))
    while len(chain[-1]) > 1:
        r = pseudo_rem(chain[-2], chain[-1])
        if not r:
            break
        chain.append(_positive_part([-x for x in r]))
    return chain


def sign_at(p, n, d):
    """Sign of p(n/d) for d > 0, from the form sum c_i n^i d^(deg - i)."""
    acc = 0
    dp = 1
    for c in reversed(p):
        acc = acc * n + c * dp
        dp *= d
    return (acc > 0) - (acc < 0)


def sign_variations(chain, n, d=1):
    """Sign changes along the chain at x = n/d (d > 0), zeros skipped."""
    signs = [s for s in (sign_at(p, n, d) for p in chain) if s]
    return sum(s != t for s, t in zip(signs, signs[1:]))


def cauchy_root_bound(a):
    """Integer B such that all real roots lie strictly inside (-B, B)."""
    a = arith.poly_trim(a)
    m = max(abs(c) for c in a[:-1]) if len(a) > 1 else 0
    return 2 + m // abs(a[-1])


def isolate_real_roots(a, chain):
    """Disjoint intervals (lo, hi], each holding one root of squarefree a,
    from dyadic bisection of the Cauchy bracket; DomainError when a has a
    repeated root (its Sturm chain then ends in a non-constant gcd(a, a'))."""
    if len(chain[-1]) > 1:
        raise DomainError("polynomial is not squarefree; deflate first")
    b = cauchy_root_bound(a)
    out = []
    # intervals (lo / 2^k, hi / 2^k] with their root counts
    stack = [(-b, b, 0, sign_variations(chain, -b) - sign_variations(chain, b))]
    while stack:
        lo, hi, k, c = stack.pop()
        if c == 1:
            out.append((Fraction(lo, 1 << k), Fraction(hi, 1 << k)))
        elif c > 1:
            lo, mid, hi, d = 2 * lo, lo + hi, 2 * hi, 2 << k
            cl = sign_variations(chain, lo, d) - sign_variations(chain, mid, d)
            stack.append((lo, mid, k + 1, cl))
            stack.append((mid, hi, k + 1, c - cl))
    return sorted(out)


def refine_root(a, chain, lo, hi, bits=80):
    """Dyadic bisection of the isolating interval (lo, hi] of a root of a.

    Returns the root if a midpoint hits it, else the midpoint of its cell
    after bits steps.  The bracket is an integer numerator n over a
    denominator d that doubles each step, with hi - lo = w / d throughout.
    """
    lo, hi = Fraction(lo), Fraction(hi)
    d = lcm(lo.denominator, hi.denominator)
    n = lo.numerator * (d // lo.denominator)
    w = hi.numerator * (d // hi.denominator) - n
    s_hi = sign_at(a, n + w, d)
    if s_hi == 0:
        return hi
    if sign_at(a, n, d) == 0:
        # lo is a different root of a sitting on the excluded boundary;
        # shrink with Sturm counts until the bracket has clean signs
        while True:
            n, d = 2 * n, 2 * d
            mid = n + w
            s_mid = sign_at(a, mid, d)
            if s_mid == 0:
                return Fraction(mid, d)
            if sign_variations(chain, n, d) - sign_variations(chain, mid, d) != 1:
                n = mid
                break
            s_hi = s_mid
    for _ in range(bits):
        n, d = 2 * n, 2 * d
        mid = n + w
        s_mid = sign_at(a, mid, d)
        if s_mid == 0:
            return Fraction(mid, d)
        if s_mid != s_hi:
            n = mid
    return Fraction(2 * n + w, 2 * d)


def real_roots(a, chain, bits=80):
    """Refined real roots of a squarefree integer polynomial with Sturm chain
    chain, ascending."""
    return [refine_root(a, chain, lo, hi, bits) for lo, hi in isolate_real_roots(a, chain)]


def cell_fractions(cells):
    """The roots (den, numerators) of `arith.quadratic_real_roots` as
    Fractions, with den checked to be a power of two."""
    den, nums = cells
    assert den > 0 and den & (den - 1) == 0, den
    return [Fraction(n, den) for n in nums]


def weil_angles(g, q):
    """The Frobenius angles of the real Weil polynomial g over F_q, ascending:
    each root of each Yun factor of g, refined by its Sturm chain to
    64 + bits(max |g_i|) levels, as arccos(root / 2 sqrt(q)) clamped to
    [-1, 1], counted with its multiplicity."""
    bits = 64 + max(abs(c) for c in g).bit_length()
    two_sqrt_q = 2.0 * math.sqrt(q)
    angles = []
    for factor, mult in yun_decomposition(g):
        for root in real_roots(factor, sturm_chain(factor), bits):
            x = min(1.0, max(-1.0, float(root) / two_sqrt_q))
            angles += [math.acos(x)] * mult
    return sorted(angles)
