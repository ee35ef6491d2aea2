"""Exact lattice and order arithmetic inside K = Q[x]/(f).

Elements are integer coordinate rows over the power basis of pi (the class
of x), read over a denominator where they are not integral; lattices are
full-rank Z-modules stored as (den, integer rows) in canonical Hermite
normal form, so lattice equality is plain equality of (denominator,
basis).  The order algebra has this one representation: products,
duals, colons and certificates run on integer rows, and the only rational
values it returns are discriminants.  The CM structure enters through the
conjugation pi -> q/pi, an integer matrix over a denominator, whose fixed
and negated subspaces carve out real subrings and pure imaginary parts.

Deliberately not implemented: the norm map on invertible ideals down to
the real subring (it exists and is unique, constructed prime by prime
through localizations, and it induces the class-group norm whose kernel
counts principally polarizable varieties), quartic Picard and narrow
Picard group enumeration, and maximal-order computation.  The estimator
and certificate layer in `strata` consumes only the quadratic shadows of
these objects, which `quadratic` computes exactly.
"""

import json
from collections import namedtuple
from math import prod

from . import arith
from .errors import DomainError, InternalError, RankError
from .weil import delta_norm, real_weil_polynomial


class RingContext:
    """Multiplication and trace structure of Q[x]/(poly), poly monic separable."""

    def __init__(self, poly):
        poly = arith.poly_trim(poly)
        if len(poly) < 2 or poly[-1] != 1:
            raise DomainError("context needs a monic nonconstant polynomial")
        self.poly = tuple(poly)
        self.dim = len(poly) - 1
        self.trace_gram = arith.trace_form(self.poly)
        self.trace_det = arith.det(self.trace_gram)
        if self.trace_det == 0:
            raise DomainError("context polynomial must be separable")

    def element_matrix(self, u):
        """Rows i = coordinates of x^i * u, so that y*u = y @ M; integral for integral u."""
        rows = [list(u)]
        for _ in range(1, self.dim):
            prev = rows[-1]
            top = prev[-1]
            rows.append([s - top * c for s, c in zip([0] + prev[:-1], self.poly)])
        return rows


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
        # a0 pibar = q a0 / pi = -q (a1 + a2 pi + ... + pi^(m-1)) from f(pi) = 0,
        # and a0 = q^n > 0 by the functional equation
        a0 = self.poly[0]
        pibar = [-q * c for c in self.poly[1:]]
        # the conjugation matrix (row i = pibar^i) as (den, integer rows)
        den, c = self._powers(pibar, a0, self.dim)
        self.conj_int = (den, c)
        square = [[den * den * (i == j) for j in range(self.dim)] for i in range(self.dim)]
        if arith.mat_mul(c, c) != square:
            raise InternalError("conjugation is not an involution")
        self.real_ctx = RingContext(self.g)
        alpha = [x + a0 * (i == 1) for i, x in enumerate(pibar)]
        self.alpha_powers = self._powers(alpha, a0, self.n)  # alpha^k, k < n, as (den, rows)

    def _powers(self, num, den, count):
        """(den^(count-1), rows): row k = (num / den)^k scaled by den^(count-1), k < count."""
        rows = [[den ** (count - 1) * (j == 0) for j in range(self.dim)]]
        step = self.element_matrix(num)
        for _ in range(1, count):
            rows.append([x // den for x in arith.mat_mul(rows[-1:], step)[0]])
        return den ** (count - 1), rows


class Lattice(namedtuple("Lattice", "ctx den rows")):
    """Full-rank Z-lattice in its context algebra, canonical HNF basis.

    Equality of lattices is equality of (context, den, rows); the stored
    basis is rows/den with rows in canonical integer HNF.
    """

    __slots__ = ()

    def coordinates(self, coords, den=1):
        """Integer c with c @ rows / self.den == coords / den, or None if
        coords / den is not in the lattice (coords and den integers).

        Solved by substitution down the triangular HNF rows, whose pivots
        sit on the diagonal.
        """
        v = []
        for x in coords:
            y, r = divmod(x * self.den, den)
            if r:
                return None
            v.append(y)
        out = []
        for j, row in enumerate(self.rows):
            c, r = divmod(v[j], row[j])
            if r:
                return None
            if c:
                v = [a - c * b for a, b in zip(v, row)]
            out.append(c)
        return out

    def contains(self, coords, den=1):
        """Whether coords / den lies in the lattice (coords and den integers)."""
        return self.coordinates(coords, den) is not None


def lattice_from_generators(ctx, gen_rows, den=1):
    """Canonical lattice spanned by integer generator rows / den (full rank
    required, den a nonzero integer)."""
    den, rows = arith.lattice_hnf(gen_rows, ctx.dim, den)
    return Lattice(ctx=ctx, den=den, rows=rows)


def conj_lattice(lat):
    den, c = lat.ctx.conj_int
    return lattice_from_generators(lat.ctx, arith.mat_mul(lat.rows, c), lat.den * den)


def _products(ctx, a_rows, b_rows):
    """Integer rows u * v for u in a_rows, v in b_rows; integral since f is monic."""
    return [w for v in b_rows for w in arith.mat_mul(a_rows, ctx.element_matrix(v))]


def product(a, b):
    if a.ctx is not b.ctx:
        raise DomainError("lattices live in different contexts")
    return lattice_from_generators(a.ctx, _products(a.ctx, a.rows, b.rows), a.den * b.den)


def colon(a, b):
    """(a : b) = {x in K : x b <= a}, as a lattice.

    a is the trace dual of its dual, so x b <= a iff Tr(x b a^dual) <= Z:
    (a : b) is the trace dual of b a^dual.
    """
    return trace_dual(product(b, trace_dual(a)))


def multiplier_ring(lat):
    """{x in K : x L <= L}, the endomorphism ring of the lattice."""
    return colon(lat, lat)


def trace_dual(lat):
    """{x in K : Tr(x L) <= Z}."""
    # Tr(x H_i / d) is integral for every row H_i iff x (T H^T) lies in
    # d Z^n, T the trace form, so the dual is spanned by d (T H^T)^-1
    g, y = arith.inverse(arith.mat_mul(lat.ctx.trace_gram, arith.mat_transpose(lat.rows)))
    return lattice_from_generators(lat.ctx, [[lat.den * v for v in row] for row in y], g)


def lattice_discriminant(lat):
    """Determinant of the trace Gram in the lattice basis, sign retained,
    as a Fraction: (product of the HNF diagonal / den^dim)^2 * disc f."""
    return _fraction(*_discriminant_parts(lat))


def _discriminant_parts(lat):
    """(num, den), not reduced, with lattice_discriminant(lat) = num / den."""
    diag = prod(row[i] for i, row in enumerate(lat.rows))
    return diag * diag * lat.ctx.trace_det, lat.den ** (2 * lat.ctx.dim)


def _fraction(num, den):
    # fractions is imported by the paths that return or print a rational,
    # not by the pipelines, which compare in integers
    from fractions import Fraction

    return Fraction(num, den)


def is_ring(lat):
    if not lat.contains([1] + [0] * (lat.ctx.dim - 1)):
        return False
    return all(lat.contains(w, lat.den * lat.den) for w in _products(lat.ctx, lat.rows, lat.rows))


def is_gorenstein(ring):
    """True iff the trace dual D is an invertible fractional ideal of the ring.

    D is invertible iff D (R : D) = R, and (R : D) is the trace dual of D D,
    since R is the trace dual of D.
    """
    if not is_ring(ring):
        raise DomainError("input lattice is not a ring")
    dual = trace_dual(ring)
    return product(dual, trace_dual(product(dual, dual))) == ring


def eigen_sublattice(lat, sign):
    """Integer rows, over lat.den, spanning {x in L : conj(x) = sign * x} in HNF.

    With C the conjugation over den, one HNF of the rows x (C - sign den I) | x
    for x in L: the rows whose first block vanishes span the eigen-sublattice,
    and their second blocks are its HNF basis.
    """
    den, c = lat.ctx.conj_int
    dim = lat.ctx.dim
    shifted = [[x - sign * den * (i == j) for j, x in enumerate(row)] for i, row in enumerate(c)]
    images = arith.mat_mul(lat.rows, shifted)
    h, _ = arith.hnf_int([image + list(row) for image, row in zip(images, lat.rows)])
    return [row[dim:] for row in h if not any(row[:dim])]


def minimal_order(ctx):
    """The order generated by pi and conj(pi): Z[pi, pibar] in HNF.

    A Z-basis is 1, pi, pibar, pi^2, pibar^2, ..., pi^(n-1), pibar^(n-1), pi^n.
    Since n < 2n, pi^k is the k-th unit vector, and pibar^k = conj(pi^k) is
    row k of the conjugation matrix.

    Checked against the discriminant norms: Z[pi, pibar] = Z[alpha][pi] with
    pi^2 - alpha pi + q = 0 and alpha a root of g, so its discriminant has
    absolute value disc(g)^2 |N(alpha^2 - 4q)|, where disc(g) is the
    trace-form determinant of the real context (1 for n = 1).
    """
    den, c = ctx.conj_int
    powers = [[den * (i == k) for i in range(ctx.dim)] for k in range(ctx.n + 1)]
    lat = lattice_from_generators(ctx, powers + c[1 : ctx.n], den)
    expected = ctx.real_ctx.trace_det**2 * delta_norm(ctx.g, ctx.q)
    num, den = _discriminant_parts(lat)
    if abs(num) != expected * den:
        found = abs(_fraction(num, den))
        raise InternalError(
            f"disc Z[pi, pibar] = {found}, but disc(g)^2 |N(alpha^2 - 4q)| = {expected}"
        )
    return lat


def real_subring(ring):
    """The fixed subring R ∩ K+ re-expressed over powers of alpha = pi + pibar.

    Returns a lattice in the degree-n context of the real companion
    polynomial g.
    """
    ctx = ring.ctx
    gens = eigen_sublattice(ring, +1)
    if len(gens) != ctx.n:
        raise InternalError("fixed sublattice has unexpected rank")
    # alpha^k = p[k] / pden; solve on the pivot columns S of p, where p_S x = e I
    pden, p = ctx.alpha_powers
    _, cols, _ = arith.echelon(p)
    if len(cols) < ctx.n:
        raise RankError("matrix has deficient row rank")
    e, x = arith.inverse([[row[j] for j in cols] for row in p])
    rows = arith.mat_mul([[y[j] for j in cols] for y in gens], x)
    if arith.mat_mul(rows, p) != [[e * v for v in y] for y in gens]:
        raise InternalError("fixed vector is not in the real subfield")
    rows = [[pden * v for v in row] for row in rows]
    return lattice_from_generators(ctx.real_ctx, rows, ring.den * e)


class ConvenienceCertificate(
    namedtuple(
        "ConvenienceCertificate",
        "stable_under_conjugation real_subring_gorenstein pure_imaginary_index is_convenient",
    )
):
    __slots__ = ()


def pure_imaginary_index(ring):
    """Index in the trace dual of the ideal its pure imaginary part generates.

    The generators are read in the coordinates of the dual's basis, so the
    index is the determinant of their span in Z^dim: the product of the
    diagonal of its HNF.
    """
    dual = trace_dual(ring)
    imag = eigen_sublattice(dual, -1)
    den = ring.den * dual.den
    coords = []
    for row in _products(ring.ctx, ring.rows, imag):
        c = dual.coordinates(row, den)
        if c is None:
            raise InternalError("generated ideal escapes the trace dual")
        coords.append(c)
    _, h = arith.lattice_hnf(coords, ring.ctx.dim)
    return prod(h[i][i] for i in range(ring.ctx.dim))


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


def _different_generator(ctx):
    """(s, row): s * delta as an integer row, delta = (pi - pibar) g'(alpha).

    s = den * pden, the denominators of pibar and of the powers of alpha.
    """
    den, c = ctx.conj_int
    pden, p = ctx.alpha_powers
    pi_minus_pibar = [den * (i == 1) - x for i, x in enumerate(c[1])]
    g_prime = [sum((k + 1) * ctx.g[k + 1] * p[k][j] for k in range(ctx.n)) for j in range(ctx.dim)]
    return den * pden, _products(ctx, [pi_minus_pibar], [g_prime])[0]


def minimal_order_certificate(minimal):
    """The convenience certificate of the lattice `minimal_order` returns,
    from the closed form of its trace dual, with no HNF and no trace dual.

    Proof.  (1) `minimal_order` checks |disc| of the lattice against
    disc(g)^2 |N(alpha^2 - 4q)|, the discriminant of Z[alpha][pi]; the
    lattice lies in Z[pi, pibar] = Z[alpha][pi], so it equals that ring.
    Hence it is a ring, it is stable under conjugation, and R ∩ K+ =
    Z[alpha] (conj(a + b pi) = a + b alpha - b pi) is monogenic, so
    Gorenstein.  (2) R is monogenic over Z[alpha], which is monogenic over
    Z, so Euler's lemma on the duals of monogenic orders (Serre, Local
    Fields, III §6), applied twice, gives R^dual = delta^-1 R with delta =
    (pi - pibar) g'(alpha).  Both halves are checked here: Tr(delta^-1 b)
    is integral for each basis row b, so delta^-1 R <= R^dual since R is a
    ring; and |N(delta)| = |disc R|, so delta^-1 R has the covolume of
    R^dual.  The two lattices are equal, R^dual is generated by delta^-1,
    which is pure imaginary as conj(delta) = -delta, and the index is 1.
    For n = 1, g' = 1 and delta = pi - pibar.

    Raises InternalError, carrying delta and the failing value, when either
    check fails.
    """
    ctx = minimal.ctx
    scale, delta = _different_generator(ctx)

    def failed(what):
        return InternalError(f"{what}; delta = {[str(_fraction(x, scale)) for x in delta]}")

    # M(s delta) X = d I with d = N(s delta) = s^dim N(delta); the first row
    # of X over d is the coordinate row of (s delta)^-1
    norm, adjugate = arith.inverse(ctx.element_matrix(delta))
    num, den = _discriminant_parts(minimal)
    if abs(norm) * den != abs(num) * scale**ctx.dim:
        found, disc = abs(_fraction(norm, scale**ctx.dim)), abs(_fraction(num, den))
        raise failed(f"|N(delta)| = {found}, but |disc Z[pi, pibar]| = {disc}")
    # Tr(delta^-1 b_i / den) = s (b_i . T x) / (d den), T the trace form
    column = [sum(t * x for t, x in zip(row, adjugate[0])) for row in ctx.trace_gram]
    modulus = norm * minimal.den
    for i, row in enumerate(minimal.rows):
        value = scale * sum(b * t for b, t in zip(row, column))
        if value % modulus:
            raise failed(f"Tr(delta^-1 b_{i}) = {_fraction(value, modulus)} is not integral")
    return ConvenienceCertificate(
        stable_under_conjugation=True,
        real_subring_gorenstein=True,
        pure_imaginary_index=1,
        is_convenient=True,
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
    return ctx, lattice_from_generators(ctx, rows, den)


def load_order_file(path):
    """Context and lattice from a JSON order file; DomainError if malformed.

    Read as bytes, so `json.loads` detects the encoding and drops a BOM.
    """
    with open(path, "rb") as handle:
        try:
            data = json.loads(handle.read())
        except ValueError as exc:  # JSONDecodeError, or bytes that are not text
            raise DomainError(f"order file is not JSON: {exc}") from exc
    return lattice_from_json(data)
