"""Reference oracles for lattices in a CM algebra.

`orders.colon` reads (a : b) off two trace duals; the tests check it
against the direct route kept here, which inverts a's basis and takes the
dual of the functionals that test x b_i for membership in a.
"""

from fractions import Fraction

from ppav import arith, orders
from ppav.errors import DomainError, RankError


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
