"""Reference oracle for the squarefree split of an integer polynomial.

`arith.squarefree_chains` reads its repeated gcds off Sturm chains; the
tests compare its factors with Yun's decomposition (Yun 1976), kept here
on top of a primitive-remainder gcd.
"""

from ppav import arith


def poly_gcd(a, b):
    """Primitive gcd of integer polynomials, positive leading coefficient."""
    a, b = arith.poly_primitive(a), arith.poly_primitive(b)
    while b:
        if len(a) < len(b):
            a, b = b, a
            continue
        r = arith._pseudo_rem(a, b)
        a, b = b, arith.poly_primitive(r)
    return a


def yun_decomposition(a):
    """Yun decomposition [(factor, multiplicity)] with a ~ prod f_i^i.

    Runs over the integers: every division is by a primitive gcd, so by
    Gauss's lemma each quotient is integral, and w and y stay scaled alike.
    """
    a = arith.poly_primitive(a)
    if len(a) <= 2:
        return [(a, 1)] if len(a) == 2 else []
    da = arith.poly_derivative(a)
    g = poly_gcd(a, da)
    if len(g) <= 1:
        return [(a, 1)]
    out = []
    w, _ = arith.poly_divmod_exact(a, g)
    y, _ = arith.poly_divmod_exact(da, g)
    z = arith.poly_sub(y, arith.poly_derivative(w))
    i = 1
    while len(w) > 1:
        h = poly_gcd(w, z)
        if len(h) > 1:
            out.append((h, i))
        w, _ = arith.poly_divmod_exact(w, h)
        y, _ = arith.poly_divmod_exact(z, h)
        z = arith.poly_sub(y, arith.poly_derivative(w))
        i += 1
    return out
