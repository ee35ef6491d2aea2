"""Exact lattice and order arithmetic inside K = Q[x]/(f).

Elements are coordinate row vectors over the power basis of pi (the class
of x); lattices are full-rank Z-modules stored in canonical Hermite normal
form, so lattice equality is plain equality of (denominator, basis).  The
CM structure enters through the conjugation pi -> q/pi, whose fixed and
negated subspaces carve out real subrings and pure imaginary parts.

Deliberately not implemented: the norm map on invertible ideals down to
the real subring (it exists and is unique, constructed prime by prime
through localizations, and it induces the class-group norm whose kernel
counts principally polarizable varieties), quartic Picard and narrow
Picard group enumeration, and maximal-order computation.  The estimator
and certificate layer in `strata` consumes only the quadratic shadows of
these objects, which `quadratic` computes exactly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm

from . import arith
from .errors import DomainError, InternalError, RankError
from .weil import real_weil_polynomial


def _newton_power_sums(poly, count):
    """Power sums of the roots of a monic integer polynomial."""
    m = len(poly) - 1
    a = poly
    sums = [m]
    for k in range(1, count):
        if k <= m:
            s = -k * a[m - k]
            for i in range(1, k):
                s -= a[m - i] * sums[k - i]
        else:
            s = 0
            for i in range(1, m + 1):
                s -= a[m - i] * sums[k - i]
        sums.append(s)
    return sums


class RingContext:
    """Multiplication and trace structure of Q[x]/(poly), poly monic separable."""

    def __init__(self, poly):
        poly = arith.poly_trim(poly)
        if len(poly) < 2 or poly[-1] != 1:
            raise DomainError("context needs a monic nonconstant polynomial")
        if len(arith.poly_gcd(poly, arith.poly_derivative(poly))) != 1:
            raise DomainError("context polynomial must be separable")
        self.poly = tuple(poly)
        self.dim = len(poly) - 1
        m = self.dim
        # x^k mod poly for k = 0 .. 2m-2
        rows = [[0] * m for _ in range(2 * m - 1)]
        for k in range(min(m, 2 * m - 1)):
            rows[k][k] = 1
        for k in range(m, 2 * m - 1):
            prev = rows[k - 1]
            shifted = [0] + list(prev[: m - 1])
            top = prev[m - 1]
            rows[k] = [s - top * c for s, c in zip(shifted, poly[:m])]
        self._pow = [tuple(r) for r in rows]
        sums = _newton_power_sums(list(poly), 2 * m - 1)
        self.trace_gram = [[sums[i + j] for j in range(m)] for i in range(m)]
        self.trace_det = int(arith.mat_det(self.trace_gram))
        if self.trace_det == 0:
            raise InternalError("degenerate trace form on a separable algebra")

    @property
    def one(self):
        return tuple([Fraction(1)] + [Fraction(0)] * (self.dim - 1))

    @property
    def x(self):
        return self.element([0, 1]) if self.dim >= 2 else self.element([Fraction(-self.poly[0])])

    def element(self, coords):
        coords = [Fraction(c) for c in coords]
        if len(coords) > self.dim:
            raise DomainError("coordinate vector too long")
        coords += [Fraction(0)] * (self.dim - len(coords))
        return tuple(coords)

    def mul(self, u, v):
        m = self.dim
        conv = [Fraction(0)] * (2 * m - 1)
        for i, a in enumerate(u):
            if a == 0:
                continue
            for j, b in enumerate(v):
                if b != 0:
                    conv[i + j] += a * b
        out = list(conv[:m])
        for k in range(m, 2 * m - 1):
            c = conv[k]
            if c != 0:
                row = self._pow[k]
                for j in range(m):
                    if row[j]:
                        out[j] += c * row[j]
        return tuple(out)

    def power(self, u, k):
        acc = self.one
        for _ in range(k):
            acc = self.mul(acc, u)
        return acc

    def element_matrix(self, u):
        """Rows i = coordinates of x^i * u, so that y*u = y @ M."""
        rows = []
        cur = self.element(u)
        xgen = self.x
        for _ in range(self.dim):
            rows.append(list(cur))
            cur = self.mul(cur, xgen)
        return rows

    def trace(self, u):
        return sum(c * self.trace_gram[0][i] for i, c in enumerate(u))

    def inverse(self, u):
        """Multiplicative inverse of a unit u, via its multiplication matrix."""
        m = arith.mat_inverse(self.element_matrix(u))
        return tuple(m[0])


class FieldContext(RingContext):
    """RingContext for a degree-2n CM algebra Q[x]/(f) with pi*conj(pi) = q."""

    def __init__(self, f, q):
        super().__init__(f)
        if self.dim % 2 != 0:
            raise DomainError("CM context needs even degree")
        if q < 1:
            raise DomainError("q must be positive")
        self.q = q
        self.n = self.dim // 2
        self.g = tuple(real_weil_polynomial(list(self.poly), q))
        a = self.poly
        # pi^-1 = -(a1 + a2 pi + ... + pi^(m-1)) / a0 from f(pi) = 0
        inv = [Fraction(-a[i + 1], a[0]) for i in range(self.dim)]
        self.pi = self.element([0, 1])
        self.pibar = tuple(q * c for c in inv)
        rows = []
        cur = self.one
        for _ in range(self.dim):
            rows.append(list(cur))
            cur = self.mul(cur, self.pibar)
        self.conj_matrix = rows
        if arith.mat_mul(rows, rows) != arith.mat_identity(self.dim):
            raise InternalError("conjugation is not an involution")
        self.alpha = tuple(u + v for u, v in zip(self.pi, self.pibar))
        self.real_ctx = RingContext(self.g)
        powers = []
        cur = self.one
        for _ in range(self.n):
            powers.append(list(cur))
            cur = self.mul(cur, self.alpha)
        self.alpha_powers = powers  # n x 2n, rows = coordinates of alpha^k

    def conj(self, u):
        out = [Fraction(0)] * self.dim
        for i, c in enumerate(u):
            if c != 0:
                row = self.conj_matrix[i]
                for j in range(self.dim):
                    if row[j]:
                        out[j] += c * row[j]
        return tuple(out)


@dataclass(frozen=True)
class Lattice:
    """Full-rank Z-lattice in its context algebra, canonical HNF basis.

    Equality of lattices is equality of (context, den, rows); the stored
    basis is rows/den with rows in canonical integer HNF.
    """

    ctx: RingContext
    den: int
    rows: tuple

    @cached_property
    def basis(self):
        return [[Fraction(x, self.den) for x in row] for row in self.rows]

    @cached_property
    def _basis_inverse(self):
        return arith.mat_inverse(self.basis)

    def det(self):
        d = Fraction(1)
        for i, row in enumerate(self.rows):
            d *= Fraction(row[i], self.den)
        return d

    def contains(self, coords):
        sol = arith.mat_mul([list(coords)], self._basis_inverse)[0]
        return all(c.denominator == 1 for c in sol)


def lattice_from_generators(ctx, gen_rows):
    """Canonical lattice spanned by rational generator rows (full rank required)."""
    den, rows = arith.lattice_hnf(gen_rows, ctx.dim)
    return Lattice(ctx=ctx, den=den, rows=rows)


def scale_lattice(lat, c):
    c = Fraction(c)
    if c == 0:
        raise DomainError("cannot scale a lattice by zero")
    return lattice_from_generators(lat.ctx, [[c * x for x in row] for row in lat.basis])


def conj_lattice(lat):
    ctx = lat.ctx
    return lattice_from_generators(ctx, [list(ctx.conj(row)) for row in lat.basis])


def product(a, b):
    if a.ctx is not b.ctx:
        raise DomainError("lattices live in different contexts")
    ctx = a.ctx
    gens = [list(ctx.mul(ctx.element(ra), ctx.element(rb))) for ra in a.basis for rb in b.basis]
    return lattice_from_generators(ctx, gens)


def colon(a, b):
    """(a : b) = {x in K : x b <= a}, as a lattice."""
    if a.ctx is not b.ctx:
        raise DomainError("lattices live in different contexts")
    ctx = a.ctx
    a_inv = a._basis_inverse
    functionals = []
    for row in b.basis:
        m = arith.mat_mul(ctx.element_matrix(row), a_inv)
        functionals.extend(arith.mat_transpose(m))
    den, h = arith.lattice_hnf(functionals, ctx.dim)
    g = [[Fraction(x, den) for x in row] for row in h]
    dual = arith.mat_inverse(arith.mat_transpose(g))
    return lattice_from_generators(ctx, dual)


def multiplier_ring(lat):
    """{x in K : x L <= L}, the endomorphism ring of the lattice."""
    return colon(lat, lat)


def trace_dual(lat):
    """{x in K : Tr(x L) <= Z}."""
    ctx = lat.ctx
    b = lat.basis
    gram = arith.mat_mul(arith.mat_mul(b, arith.mat_fractions(ctx.trace_gram)), arith.mat_transpose(b))
    dual_rows = arith.mat_mul(arith.mat_inverse(gram), b)
    return lattice_from_generators(ctx, dual_rows)


def lattice_discriminant(lat):
    """Determinant of the trace Gram in the lattice basis, sign retained."""
    d = lat.det()
    return d * d * lat.ctx.trace_det


def is_ring(lat):
    if not lat.contains(lat.ctx.one):
        return False
    rows = lat.basis
    for i, u in enumerate(rows):
        eu = lat.ctx.element(u)
        for v in rows[i:]:
            if not lat.contains(lat.ctx.mul(eu, lat.ctx.element(v))):
                return False
    return True


def is_invertible_over(a, ring):
    return product(a, colon(ring, a)) == ring


def is_gorenstein(ring):
    """True iff the trace dual is an invertible fractional ideal of the ring."""
    if not is_ring(ring):
        raise DomainError("input lattice is not a ring")
    return is_invertible_over(trace_dual(ring), ring)


def index_in(sub, sup):
    """[sup : sub] for nested lattices sub <= sup, as a positive integer."""
    ratio = abs(sub.det() / sup.det())
    if ratio.denominator != 1:
        raise InternalError("index of non-nested lattices requested")
    return int(ratio)


def eigen_sublattice(lat, sign):
    """Generator rows (rank n) of {x in L : conj(x) = sign * x}."""
    ctx = lat.ctx
    b = lat.basis
    cm = [
        [ctx.conj_matrix[i][j] - (sign if i == j else 0) for j in range(ctx.dim)]
        for i in range(ctx.dim)
    ]
    m = arith.mat_mul(b, arith.mat_fractions(cm))
    den = 1
    for row in m:
        for x in row:
            den = lcm(den, x.denominator)
    m_int = [[int(x * den) for x in row] for row in m]
    kernel = arith.left_kernel_int(m_int)
    return [arith.mat_mul([[Fraction(c) for c in coeffs]], b)[0] for coeffs in kernel]


def minimal_order(ctx):
    """The order generated by pi and conj(pi): Z[pi, pibar] in HNF.

    A Z-basis is 1, pi, pibar, pi^2, pibar^2, ..., pi^(n-1), pibar^(n-1), pi^n.
    """
    n = ctx.n
    gens = [list(ctx.one)]
    pi_pow = ctx.one
    pibar_pow = ctx.one
    for _ in range(1, n):
        pi_pow = ctx.mul(pi_pow, ctx.pi)
        pibar_pow = ctx.mul(pibar_pow, ctx.pibar)
        gens.append(list(pi_pow))
        gens.append(list(pibar_pow))
    gens.append(list(ctx.power(ctx.pi, n)))
    return lattice_from_generators(ctx, gens)


def real_subring(ring):
    """The fixed subring R ∩ K+ re-expressed over powers of alpha = pi + pibar.

    Returns a lattice in the degree-n context of the real companion
    polynomial g.
    """
    ctx = ring.ctx
    gens = eigen_sublattice(ring, +1)
    if len(gens) != ctx.n:
        raise InternalError("fixed sublattice has unexpected rank")
    p = arith.mat_fractions(ctx.alpha_powers)
    cols = _independent_columns(p)
    p_sq_inv = arith.mat_inverse([[row[j] for j in cols] for row in p])
    rows = []
    for y in gens:
        x = arith.mat_mul([[y[j] for j in cols]], p_sq_inv)[0]
        if arith.mat_mul([x], p)[0] != list(y):
            raise InternalError("fixed vector is not in the real subfield")
        rows.append(x)
    return lattice_from_generators(ctx.real_ctx, rows)


def _independent_columns(p):
    nrows = len(p)
    chosen = []
    work = []
    for j in range(len(p[0])):
        candidate = work + [[row[j] for row in p]]
        if _rank(candidate) == len(candidate):
            chosen.append(j)
            work = candidate
        if len(chosen) == nrows:
            break
    if len(chosen) < nrows:
        raise RankError("matrix has deficient row rank")
    return chosen


def _rank(rows):
    m = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for col in range(len(m[0])):
        piv = next((i for i in range(rank, len(m)) if m[i][col] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = 1 / m[rank][col]
        m[rank] = [x * inv for x in m[rank]]
        for i in range(len(m)):
            if i != rank and m[i][col] != 0:
                f = m[i][col]
                m[i] = [x - f * y for x, y in zip(m[i], m[rank])]
        rank += 1
    return rank


@dataclass(frozen=True)
class ConvenienceCertificate:
    stable_under_conjugation: bool
    real_subring_gorenstein: bool
    pure_imaginary_index: int
    is_convenient: bool


def pure_imaginary_index(ring):
    """Index in the trace dual of the ideal its pure imaginary part generates."""
    dual = trace_dual(ring)
    imag_gens = eigen_sublattice(dual, -1)
    ctx = ring.ctx
    gens = [
        list(ctx.mul(ctx.element(r), ctx.element(m))) for r in ring.basis for m in imag_gens
    ]
    generated = lattice_from_generators(ctx, gens)
    for row in generated.basis:
        if not dual.contains(row):
            raise InternalError("generated ideal escapes the trace dual")
    return index_in(generated, dual)


def convenient_certificate(ring):
    """Checks the three defining properties of a convenient order.

    (1) stability under conjugation; (2) the real subring R ∩ K+ is
    Gorenstein; (3) the trace dual is generated, as a module over the
    ring, by its pure imaginary elements (reported as an index, 1 meaning
    generated).
    """
    if not is_ring(ring):
        raise DomainError("input lattice is not a ring")
    stable = conj_lattice(ring) == ring
    real_gor = is_gorenstein(real_subring(ring))
    index = pure_imaginary_index(ring)
    return ConvenienceCertificate(
        stable_under_conjugation=stable,
        real_subring_gorenstein=real_gor,
        pure_imaginary_index=index,
        is_convenient=stable and real_gor and index == 1,
    )


# ---------------------------------------------------------------------------
# JSON import/export of lattices


def lattice_to_json(lat):
    ctx = lat.ctx
    if not isinstance(ctx, FieldContext):
        raise DomainError("only CM-context lattices serialize")
    return {
        "f": [int(c) for c in ctx.poly],
        "q": int(ctx.q),
        "den": int(lat.den),
        "basis": [[int(x) for x in row] for row in lat.rows],
    }


def _int_list(value, what):
    if not isinstance(value, list) or not all(type(x) is int for x in value):
        raise DomainError(f"order file: {what} must be a list of integers")
    return value


def lattice_from_json(data, ctx=None):
    """Lattice from the object `lattice_to_json` writes.

    Raises DomainError for a missing key, a non-integer entry, den <= 0 or
    a basis row whose length is not the degree of f.
    """
    if not isinstance(data, dict):
        raise DomainError("order file must hold a JSON object")
    missing = [key for key in ("f", "q", "den", "basis") if key not in data]
    if missing:
        raise DomainError(f"order file lacks {', '.join(missing)}")
    f = _int_list(data["f"], "f")
    q, den = data["q"], data["den"]
    if type(q) is not int or type(den) is not int:
        raise DomainError("order file: q and den must be integers")
    if den <= 0:
        raise DomainError(f"order file: den must be positive, got {den}")
    if not isinstance(data["basis"], list):
        raise DomainError("order file: basis must be a list of rows")
    rows = [_int_list(row, "each basis row") for row in data["basis"]]
    if ctx is None:
        ctx = FieldContext(f, q)
    elif list(ctx.poly) != f or ctx.q != q:
        raise DomainError("order file belongs to a different field")
    if any(len(row) != ctx.dim for row in rows):
        raise DomainError(f"order file: every basis row needs {ctx.dim} entries")
    return ctx, lattice_from_generators(ctx, [[Fraction(x, den) for x in row] for row in rows])


def load_order_file(path):
    """Context and lattice from a JSON order file; DomainError if malformed."""
    with open(path) as handle:
        try:
            data = json.load(handle)
        except ValueError as exc:  # JSONDecodeError, or bytes that are not text
            raise DomainError(f"order file is not JSON: {exc}") from exc
    return lattice_from_json(data)
