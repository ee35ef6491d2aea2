"""Reference oracles for lattices in a CM algebra and their discriminants.

`orders.colon` reads (a : b) off two trace duals; the tests check it
against the direct route kept here, which inverts a's basis and takes the
dual of the functionals that test x b_i for membership in a.
`orders.is_gorenstein` is checked against invertibility through `colon`,
and `weil.real_discriminant_norms` against Sylvester resultants.
`INCONVENIENT_ORDER` is the path of the worked inconvenient order over
F_19, for `orders.load_order_file`.

The package keeps elements and lattices as integer rows over one
denominator.  The helpers below build elements by hand as tuples of
``Fraction`` coordinates over the power basis of pi instead, multiply
them through `ctx.element_matrix`, read pi and pibar off `ctx.conj_int`,
and turn rational rows into the (den, integer rows) pairs the package
takes.
"""

import os
from fractions import Fraction
from math import lcm, prod

from ppav import arith, orders
from ppav.errors import DomainError, RankError

INCONVENIENT_ORDER = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), os.pardir, "data", "ex-inconvenient.json"
)


def element(ctx, coords):
    """The element with the given power-basis coordinates, as Fractions."""
    coords = [Fraction(c) for c in coords]
    return tuple(coords + [Fraction(0)] * (ctx.dim - len(coords)))


def one(ctx):
    return element(ctx, [1])


def pi(ctx):
    return element(ctx, [0, 1])


def pibar(ctx):
    """q / pi: row 1 of the conjugation matrix over its denominator."""
    den, c = ctx.conj_int
    return element(ctx, [Fraction(x, den) for x in c[1]])


def alpha(ctx):
    """pi + pibar, the generator of the real subfield."""
    return tuple(u + v for u, v in zip(pi(ctx), pibar(ctx)))


def times(ctx, u, v):
    """The product u * v of two elements."""
    return tuple(Fraction(c) for c in arith.mat_mul([list(u)], ctx.element_matrix(list(v)))[0])


def integer_rows(rows):
    """(den, integer rows) with rows == integer rows / den, den the least such."""
    den = lcm(*(Fraction(x).denominator for row in rows for x in row))
    return den, [[int(x * den) for x in row] for row in rows]


def lattice_from_elements(ctx, elements):
    """The lattice spanned by elements with rational coordinates."""
    den, rows = integer_rows(elements)
    return orders.lattice_from_generators(ctx, rows, den)


def basis(lat):
    """The HNF basis of a lattice as elements: its rows over its denominator."""
    return [element(lat.ctx, [Fraction(x, lat.den) for x in row]) for row in lat.rows]


def covolume(lat):
    """The determinant of the lattice basis: the HNF diagonal product over den^dim."""
    return Fraction(prod(row[i] for i, row in enumerate(lat.rows)), lat.den**lat.ctx.dim)


def colon_by_inverse(a, b):
    """(a : b) = {x in K : x b <= a}, from the inverse of a's basis."""
    if a.ctx is not b.ctx:
        raise DomainError("lattices live in different contexts")
    ctx = a.ctx
    # with a.rows @ xa = ea I, x (b.rows[i] / b.den) lies in a iff x pairs
    # integrally with s = a.den / (b.den ea) times each column of
    # M(b.rows[i]) xa; (a : b) is the dual of the lattice those columns span
    ea, xa = arith.inverse(a.rows)
    functionals = []
    for row in b.rows:
        functionals.extend(arith.mat_transpose(arith.mat_mul(ctx.element_matrix(row), xa)))
    fden, h = arith.lattice_hnf(functionals, ctx.dim)
    # the dual of s h / fden is spanned by the rows of (fden / s) (h^T)^-1 = (fden / s) y^T / g
    g, y = arith.inverse(h)
    scale = Fraction(fden * b.den * ea, a.den * g)
    rows = [[scale.numerator * v for v in row] for row in arith.mat_transpose(y)]
    return orders.lattice_from_generators(ctx, rows, scale.denominator)


def is_invertible_over(a, ring):
    """Whether a (ring : a) = ring."""
    return orders.product(a, orders.colon(ring, a)) == ring


def resultant(a, b):
    """Resultant of two nonzero integer polynomials: the determinant of
    their Sylvester matrix.

    Equals lc(a)^deg(b) * prod b(alpha) over the roots alpha of a, so for
    monic a it is the product of b over the roots of a.
    """
    a, b = arith.poly_trim(a), arith.poly_trim(b)
    da, db = len(a) - 1, len(b) - 1
    if da == 0:
        return a[0] ** db
    if db == 0:
        return b[0] ** da
    ar, br = list(reversed(a)), list(reversed(b))
    rows = [[0] * i + ar + [0] * (db - 1 - i) for i in range(db)]
    rows += [[0] * i + br + [0] * (da - 1 - i) for i in range(da)]
    return arith.det(rows)


def random_sublattice(rng, ctx, base):
    """Random finite-index sublattice of `base` with a random denominator."""
    dim = ctx.dim
    while True:
        coeffs = [[rng.randrange(-3, 4) for _ in range(dim)] for _ in range(dim)]
        rows = arith.mat_mul(coeffs, base.rows)
        den = rng.choice([1, 1, 2, 3])
        try:
            return orders.lattice_from_generators(ctx, rows, base.den * den)
        except RankError:
            continue
