import random
from fractions import Fraction
from math import gcd, isqrt

import pytest
from lattice_oracle import (
    INCONVENIENT_ORDER,
    alpha,
    basis,
    colon_by_inverse,
    covolume,
    element,
    integer_rows,
    is_invertible_over,
    lattice_from_elements,
    one,
    pi,
    pibar,
    random_sublattice,
    times,
)
from surface_sampler import random_surface_spec, simple_ordinary_surfaces
from test_arith import euclid_hnf

from ppav import arith, orders, quadratic, weil
from ppav.errors import DomainError, InternalError, RankError

F23 = [529, -138, 32, -6, 1]
SEXTIC = [8, 4, 0, 1, 0, 1, 1]  # x^6 + x^5 + x^3 + 4x + 8 over F_2


def f23_context():
    return orders.FieldContext(F23, 23)


def identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def element_inverse(ctx, u):
    """Multiplicative inverse of a unit u, via its multiplication matrix."""
    den, (w,) = integer_rows([u])
    d, x = arith.inverse(ctx.element_matrix(w))
    return tuple(Fraction(den * c, d) for c in x[0])


def scale_lattice(lat, c):
    """The lattice c * lat for a nonzero rational c."""
    c = Fraction(c)
    rows = [[c.numerator * x for x in row] for row in lat.rows]
    return orders.lattice_from_generators(lat.ctx, rows, lat.den * c.denominator)


class TestContext:
    def test_conjugation_involution(self):
        ctx = f23_context()
        den, c = ctx.conj_int
        assert arith.mat_mul(c, c) == [[den * den * x for x in row] for row in identity(4)]

    def test_pi_times_pibar_is_q(self):
        ctx = f23_context()
        assert times(ctx, pi(ctx), pibar(ctx)) == element(ctx, [23])

    def test_trace_of_one(self):
        ctx = f23_context()
        # Tr(u) pairs u with row 0 of the trace form, the traces of 1, pi, pi^2, ...
        assert sum(c * t for c, t in zip(one(ctx), ctx.trace_gram[0])) == 4

    def test_element_inverse(self):
        ctx = f23_context()
        u = element(ctx, [3, 1, 0, 2])
        assert times(ctx, u, element_inverse(ctx, u)) == one(ctx)

    def test_rejects_non_separable(self):
        with pytest.raises(DomainError):
            orders.RingContext([1, 2, 1])

    def test_involution_check_fires_on_first_read(self, monkeypatch):
        powers = orders.FieldContext._powers

        def perturbed(ctx, num, den, count):
            d, rows = powers(ctx, num, den, count)
            if count == ctx.dim:
                rows[1][0] += 1  # the constant coordinate of pibar
            return d, rows

        monkeypatch.setattr(orders.FieldContext, "_powers", perturbed)
        ctx = f23_context()
        minimal = orders.minimal_order(ctx)  # a closed form reads no conjugation
        assert "conj_int" not in vars(ctx)
        with pytest.raises(InternalError, match="not an involution"):
            orders.convenient_certificate(minimal)


class TestMultiplierRing:
    def test_monogenic_power_lattice(self):
        ctx = f23_context()
        z_pi = orders.lattice_from_generators(ctx, identity(4))
        assert orders.multiplier_ring(z_pi) == z_pi

    def test_dual_of_minimal_order(self):
        ctx = f23_context()
        minimal = orders.minimal_order(ctx)
        dual = orders.trace_dual(minimal)
        assert orders.multiplier_ring(dual) == minimal

    def test_scaling_invariance(self):
        ctx = f23_context()
        minimal = orders.minimal_order(ctx)
        assert orders.multiplier_ring(scale_lattice(minimal, 2)) == minimal
        assert orders.multiplier_ring(scale_lattice(minimal, Fraction(1, 3))) == minimal

    def test_result_is_always_a_ring(self):
        rng = random.Random(53)
        ctx = f23_context()
        base = orders.minimal_order(ctx)
        for _ in range(20):
            lat = random_sublattice(rng, ctx, base)
            ring = orders.multiplier_ring(lat)
            assert orders.is_ring(ring)
            assert ring.contains([1, 0, 0, 0])


class TestTraceDual:
    def test_involution_on_random_lattices(self):
        rng = random.Random(19)
        ctx = f23_context()
        base = orders.minimal_order(ctx)
        for _ in range(200):
            lat = random_sublattice(rng, ctx, base)
            assert orders.trace_dual(orders.trace_dual(lat)) == lat

    def test_gaussian_integers(self):
        ctx = orders.FieldContext([1, 0, 1], 1)
        zi = orders.lattice_from_generators(ctx, identity(2))
        dual = orders.trace_dual(zi)
        assert dual == scale_lattice(zi, Fraction(1, 2))
        assert orders.lattice_discriminant(zi) == -4

    def test_inconvenient_example_file_spans_printed_generators(self):
        # 1, 2 sqrt(2), (pi - pibar)/2 and (pi - pibar) sqrt(2)/2 in the
        # quartic field of x^4 - 4x^3 + 10x^2 - 76x + 361 over F_19
        ctx, lattice = orders.load_order_file(INCONVENIENT_ORDER)
        assert list(ctx.poly) == [361, -76, 10, -4, 1] and ctx.q == 19
        sqrt2 = tuple((a - (2 if i == 0 else 0)) / 4 for i, a in enumerate(alpha(ctx)))
        half_pim = tuple((a - b) / 2 for a, b in zip(pi(ctx), pibar(ctx)))
        gens = [
            one(ctx),
            [2 * c for c in sqrt2],
            half_pim,
            times(ctx, half_pim, sqrt2),
        ]
        assert lattice == lattice_from_elements(ctx, gens)

    def test_inconvenient_example_matches_printed_generators(self):
        ctx, lattice = orders.load_order_file(INCONVENIENT_ORDER)
        dual = orders.trace_dual(lattice)
        sqrt2 = tuple((a - (2 if i == 0 else 0)) / 4 for i, a in enumerate(alpha(ctx)))
        pim = tuple(a - b for a, b in zip(pi(ctx), pibar(ctx)))
        pim_inv = element_inverse(ctx, pim)
        gens = [
            [c / 4 for c in one(ctx)],
            [c / 16 for c in sqrt2],
            [c / 2 for c in pim_inv],
            [c / 4 for c in times(ctx, sqrt2, pim_inv)],
        ]
        assert dual == lattice_from_elements(ctx, gens)


class TestGorenstein:
    def test_monogenic_orders(self):
        rng = random.Random(29)
        for _ in range(25):
            spec = random_surface_spec(rng, qmax=500)
            ctx = orders.FieldContext(list(spec.f), spec.q)
            z_pi = orders.lattice_from_generators(ctx, identity(4))
            assert orders.is_gorenstein(z_pi)

    def test_inconvenient_example_is_gorenstein(self):
        _, lattice = orders.load_order_file(INCONVENIENT_ORDER)
        assert orders.is_gorenstein(lattice)

    def test_z_plus_two_o_is_not(self):
        ctx = f23_context()
        big = orders.minimal_order(ctx)
        gens = [one(ctx)] + [[2 * x for x in row] for row in basis(big)]
        small = lattice_from_elements(ctx, gens)
        assert orders.is_ring(small)
        assert not orders.is_gorenstein(small)

    def test_rejects_non_ring(self):
        ctx = f23_context()
        shifted = scale_lattice(orders.minimal_order(ctx), Fraction(1, 2))
        with pytest.raises(DomainError):
            orders.is_gorenstein(shifted)

    def test_against_invertibility_oracle(self):
        # minimal orders, n = 1 and 2, their real subrings, multiplier rings
        # of random sublattices, and the inconvenient example
        rng = random.Random(47)
        contexts = [orders.FieldContext([q, -t, 1], q) for q, t in ((5, 3), (7, 1), (97, 5))]
        for _ in range(6):
            spec = random_surface_spec(rng, qmax=500)
            contexts.append(orders.FieldContext(list(spec.f), spec.q))
        _, inconvenient = orders.load_order_file(INCONVENIENT_ORDER)
        rings = [inconvenient, orders.real_subring(inconvenient)]
        for ctx in contexts:
            minimal = orders.minimal_order(ctx)
            rings += [minimal, orders.real_subring(minimal)]
            for _ in range(4):
                rings.append(orders.multiplier_ring(random_sublattice(rng, ctx, minimal)))
        verdicts = []
        for ring in rings:
            verdict = orders.is_gorenstein(ring)
            assert verdict is is_invertible_over(orders.trace_dual(ring), ring)
            verdicts.append(verdict)
        assert len(rings) >= 50 and 0 < verdicts.count(False) < len(rings)


class TestConvenience:
    def test_minimal_orders_random(self):
        rng = random.Random(37)
        for _ in range(50):
            spec = random_surface_spec(rng, qmax=2000)
            ctx = orders.FieldContext(list(spec.f), spec.q)
            cert = orders.convenient_certificate(orders.minimal_order(ctx))
            assert cert.is_convenient
            # convenient must imply Gorenstein
            assert orders.is_gorenstein(orders.minimal_order(ctx))

    def test_inconvenient_example(self):
        _, lattice = orders.load_order_file(INCONVENIENT_ORDER)
        cert = orders.convenient_certificate(lattice)
        assert cert.stable_under_conjugation is True
        assert cert.real_subring_gorenstein is True
        assert cert.pure_imaginary_index == 2
        assert cert.is_convenient is False

    def test_unstable_order_reports_cleanly(self):
        # Z[pi] in the quartic field is not stable under conjugation
        ctx = f23_context()
        z_pi = orders.lattice_from_generators(ctx, identity(4))
        cert = orders.convenient_certificate(z_pi)
        assert cert.stable_under_conjugation is False
        assert cert.is_convenient is False

    def test_quadratic_order_adjoin_pi(self):
        """B[pi] for B an order of K+ containing pi + pibar is convenient."""
        rng = random.Random(41)
        done = 0
        while done < 100:
            spec = random_surface_spec(rng, qmax=2000)
            ctx = orders.FieldContext(list(spec.f), spec.q)
            g = spec.g
            disc_g = g[1] * g[1] - 4 * g[0]
            d0, f0 = quadratic.fundamental_decomposition(disc_g)
            divisors = arith.divisors(f0)
            f = rng.choice(divisors)
            # B = Z + Z f w0, w0 = (d0 + sqrt(d0))/2, sqrt(d0) = (2 alpha + g1)/f0
            sqrt_d0 = tuple(
                (2 * a + (g[1] if i == 0 else 0)) / f0 for i, a in enumerate(alpha(ctx))
            )
            w0 = tuple((Fraction(d0 if i == 0 else 0) + c) / 2 for i, c in enumerate(sqrt_d0))
            beta = tuple(f * c for c in w0)
            gens = [
                one(ctx),
                beta,
                pi(ctx),
                times(ctx, beta, pi(ctx)),
            ]
            lattice = lattice_from_elements(ctx, gens)
            assert orders.is_ring(lattice)
            cert = orders.convenient_certificate(lattice)
            assert cert.is_convenient, (spec.f, spec.q, f)
            # convenient must imply Gorenstein
            assert orders.is_gorenstein(lattice)
            done += 1


def index_by_generated_lattice(ring):
    """[dual : generated ideal] from the HNF of the generated ideal and the covolume ratio."""
    dual = orders.trace_dual(ring)
    gens = orders._products(ring.ctx, ring.rows, orders.eigen_sublattice(dual, -1))
    generated = orders.lattice_from_generators(ring.ctx, gens, ring.den * dual.den)
    assert all(dual.contains(row, generated.den) for row in generated.rows)
    ratio = abs(covolume(generated) / covolume(dual))
    assert ratio.denominator == 1
    return int(ratio)


class TestPureImaginaryIndex:
    def test_surface_minimal_orders(self):
        rng = random.Random(61)
        for _ in range(200):
            spec = random_surface_spec(rng)
            ring = orders.minimal_order(orders.FieldContext(list(spec.f), spec.q))
            assert orders.pure_imaginary_index(ring) == index_by_generated_lattice(ring)

    def test_multiplier_rings_of_random_lattices(self):
        # these rings give many indices above 1
        rng = random.Random(67)
        indices = set()
        for _ in range(40):
            spec = random_surface_spec(rng, qmax=500)
            ctx = orders.FieldContext(list(spec.f), spec.q)
            ring = orders.multiplier_ring(random_sublattice(rng, ctx, orders.minimal_order(ctx)))
            index = orders.pure_imaginary_index(ring)
            assert index == index_by_generated_lattice(ring)
            indices.add(index)
        assert len(indices) > 10

    def test_elliptic_minimal_orders(self):
        for q in (2, 3, 5, 7, 23, 97, 1009):
            for t in range(-isqrt(4 * q), isqrt(4 * q) + 1):
                if t * t == 4 * q or t % q == 0:
                    continue
                ring = orders.minimal_order(orders.FieldContext([q, -t, 1], q))
                assert orders.pure_imaginary_index(ring) == index_by_generated_lattice(ring)

    def test_inconvenient_example(self):
        _, lattice = orders.load_order_file(INCONVENIENT_ORDER)
        assert orders.pure_imaginary_index(lattice) == index_by_generated_lattice(lattice) == 2

    def test_deficient_generators_raise(self, monkeypatch):
        # no pure imaginary generators at all
        monkeypatch.setattr(orders, "eigen_sublattice", lambda lat, sign: [])
        with pytest.raises(RankError, match="rank 0 < 4"):
            orders.pure_imaginary_index(orders.minimal_order(f23_context()))

    def test_shifted_dual_row_escapes(self, monkeypatch):
        trace_dual = orders.trace_dual

        def shifted(lat):
            dual = trace_dual(lat)
            rows = [list(row) for row in dual.rows]
            rows[0][1] += 1  # still triangular, but no longer the dual
            return orders.Lattice(ctx=dual.ctx, den=dual.den, rows=tuple(map(tuple, rows)))

        monkeypatch.setattr(orders, "trace_dual", shifted)
        with pytest.raises(InternalError, match="escapes the trace dual"):
            orders.pure_imaginary_index(orders.minimal_order(f23_context()))


def eigen_sublattice_by_transform(lat, sign):
    """HNF of the kernel rows of the Euclid transform of L (C - sign den I), times L."""
    den, c = lat.ctx.conj_int
    shifted = [[x - sign * den * (i == j) for j, x in enumerate(row)] for i, row in enumerate(c)]
    _, rank, u = euclid_hnf(arith.mat_mul(lat.rows, shifted), transform=True)
    h, k = arith.hnf_int(arith.mat_mul(u[rank:], lat.rows))
    return h[:k]


def elliptic_contexts(qs=(2, 5, 23, 97)):
    """Every ordinary elliptic class over F_q, for q in qs a prime power."""
    for q in qs:
        p = next(d for d in range(2, q + 1) if q % d == 0)
        for t in range(-isqrt(4 * q), isqrt(4 * q) + 1):
            if t * t < 4 * q and t % p:
                yield orders.FieldContext([q, -t, 1], q)


class TestEigenSublattice:
    @staticmethod
    def check(lat):
        for sign in (1, -1):
            rows = orders.eigen_sublattice(lat, sign)
            assert rows == eigen_sublattice_by_transform(lat, sign)
            assert len(rows) == lat.ctx.dim // 2

    def test_minimal_orders_and_duals(self):
        rng = random.Random(73)
        contexts = list(elliptic_contexts())
        for _ in range(40):
            spec = random_surface_spec(rng, qmax=2000)
            contexts.append(orders.FieldContext(list(spec.f), spec.q))
        for ctx in contexts:
            minimal = orders.minimal_order(ctx)
            self.check(minimal)
            self.check(orders.trace_dual(minimal))

    def test_multiplier_rings_of_random_lattices(self):
        rng = random.Random(79)
        contexts = list(elliptic_contexts())[::3]
        for _ in range(30):
            spec = random_surface_spec(rng, qmax=500)
            contexts.append(orders.FieldContext(list(spec.f), spec.q))
        for ctx in contexts:
            lat = random_sublattice(rng, ctx, orders.minimal_order(ctx))
            self.check(orders.multiplier_ring(lat))

    def test_inconvenient_example(self):
        _, lattice = orders.load_order_file(INCONVENIENT_ORDER)
        self.check(lattice)
        self.check(orders.trace_dual(lattice))


class TestMinimalOrder:
    def test_elliptic_case(self):
        ctx = orders.FieldContext([2, -1, 1], 2)
        minimal = orders.minimal_order(ctx)
        assert minimal == orders.lattice_from_generators(ctx, identity(2))

    def test_f23_basis(self):
        ctx = f23_context()
        minimal = orders.minimal_order(ctx)
        gens = [
            one(ctx),
            pi(ctx),
            pibar(ctx),
            times(ctx, pi(ctx), pi(ctx)),
        ]
        assert minimal == lattice_from_elements(ctx, gens)
        assert orders.is_ring(minimal)
        den, c = ctx.conj_int
        assert minimal.contains([0, 1, 0, 0])  # pi
        assert minimal.contains(c[1], den)  # pibar

    def test_real_sublattice_is_z_alpha(self):
        ctx = f23_context()
        real = orders.real_subring(orders.minimal_order(ctx))
        assert real == orders.lattice_from_generators(ctx.real_ctx, identity(2))
        assert orders.lattice_discriminant(real) == 92

    def test_patched_conjugation_entry_raises(self, monkeypatch):
        # the HNF path, on a sextic and on a non-ordinary surface: a wrong
        # top coordinate of pibar changes the index of the generated lattice
        for f, q in [(SEXTIC, 2), ([9, 0, 3, 0, 1], 3)]:
            ctx = orders.FieldContext(f, q)
            assert orders._closed_form_order(ctx) is None
            powers = ctx._powers

            def patched(num, den, count, powers=powers):
                d, rows = powers(num, den, count)
                rows[1][-1] += 1
                return d, rows

            monkeypatch.setattr(ctx, "_powers", patched)
            with pytest.raises(InternalError, match=r"disc Z\[pi, pibar\]"):
                orders.minimal_order(ctx)

    @pytest.mark.parametrize("column", [2, 3])
    def test_patched_closed_form_entry_misses_pibar(self, monkeypatch, column):
        closed = orders._closed_form_order

        def patched(ctx):
            den, rows = closed(ctx)
            row = list(rows[1])
            row[column] = (row[column] + 1) % den  # still a canonical HNF
            return den, (rows[0], tuple(row), *rows[2:])

        monkeypatch.setattr(orders, "_closed_form_order", patched)
        with pytest.raises(InternalError, match=r"^closed form den=23 .* \(pibar = "):
            orders.minimal_order(f23_context())

    @pytest.mark.parametrize("f, q", [(F23, 23), ([2, -1, 1], 2)])
    def test_patched_trace_det_fails_the_identity(self, f, q):
        ctx = orders.FieldContext(f, q)
        ctx.trace_det += 1
        with pytest.raises(InternalError, match=r"disc Z\[pi, pibar\]"):
            orders.minimal_order(ctx)

    def test_patched_resultant_raises(self, monkeypatch):
        # delta_norm is |N(alpha^2 - 4q)| = |g(2 sqrt q) g(-2 sqrt q)|, as orders imports it
        delta_norm = orders.delta_norm
        monkeypatch.setattr(orders, "delta_norm", lambda g, q: delta_norm(g, q) + 1)
        with pytest.raises(InternalError, match=r"disc Z\[pi, pibar\] = 7,"):
            orders.minimal_order(orders.FieldContext([2, -1, 1], 2))


class TestMinimalOrderCertificate:
    """The theorem `MINIMAL_ORDER_CERTIFICATE` against the general certificate."""

    @staticmethod
    def check(ctx):
        minimal = orders.minimal_order(ctx)
        assert minimal == orders._minimal_order_by_hnf(ctx), ctx.poly
        assert orders.convenient_certificate(minimal) == orders.MINIMAL_ORDER_CERTIFICATE, ctx.poly

    def test_matches_general_certificate_on_every_small_field_surface(self):
        count = 0
        for q in (2, 3, 4, 5, 7, 8, 9):
            for spec in simple_ordinary_surfaces(q):
                self.check(orders.FieldContext(list(spec.f), q))
                count += 1
        assert count == 529

    def test_matches_general_certificate_on_surfaces(self):
        rng = random.Random(151)
        for _ in range(300):
            spec = random_surface_spec(rng, qmax=10**4)
            self.check(orders.FieldContext(list(spec.f), spec.q))

    def test_matches_general_certificate_on_elliptic_classes(self):
        contexts = list(elliptic_contexts((2, 3, 4, 5, 8, 9, 23, 25, 97, 1009)))
        assert len(contexts) == 230
        for ctx in contexts:
            self.check(ctx)

    def test_matches_general_certificate_on_a_sextic(self):
        # x^6 + x^5 + x^3 + 4x + 8 over F_2: the proof holds in every degree
        self.check(orders.FieldContext(SEXTIC, 2))


class TestClosedForm:
    """The closed-form rows of Z[pi, pibar] against the HNF of its generators."""

    def test_every_simple_ordinary_surface(self):
        count = 0
        for q in (2, 3, 4, 5, 7, 8, 9, 11, 23, 25, 27, 49):
            for spec in simple_ordinary_surfaces(q):
                ctx = orders.FieldContext(list(spec.f), q)
                assert orders._closed_form_order(ctx) is not None
                assert orders.minimal_order(ctx) == orders._minimal_order_by_hnf(ctx), spec.f
                count += 1
        assert count == 6473

    def test_non_ordinary_surfaces_take_the_hnf(self):
        # every separable Weil quartic over small fields, split ones too: a
        # closed form iff b is invertible mod q, and for p | b the HNF,
        # which the discriminant identity checks
        paths = {True: 0, False: 0}
        for q in (2, 3, 4, 5, 7, 8, 9):
            s = isqrt(16 * q)
            for a in range(-s, s + 1):
                for b in range(-2 * q, 6 * q + 1):
                    if not weil._quadratic_in_weil_region(b - 2 * q, a, q):
                        continue
                    try:
                        ctx = orders.FieldContext([q * q, a * q, b, a, 1], q)
                    except DomainError:  # a repeated factor
                        continue
                    closed = orders._closed_form_order(ctx) is not None
                    assert closed == (gcd(b, q) == 1)
                    assert orders.minimal_order(ctx) == orders._minimal_order_by_hnf(ctx)
                    paths[closed] += 1
        assert paths == {True: 658, False: 333}


class TestDiscriminants:
    def test_elliptic(self):
        ctx = orders.FieldContext([2, -1, 1], 2)
        z_pi = orders.lattice_from_generators(ctx, identity(2))
        assert orders.lattice_discriminant(z_pi) == -7

    def test_f23_minimal_order(self):
        ctx = f23_context()
        disc = orders.lattice_discriminant(orders.minimal_order(ctx))
        assert abs(disc) == 2772 * 92 * 92

    def test_scaling_law(self):
        ctx = f23_context()
        minimal = orders.minimal_order(ctx)
        base = orders.lattice_discriminant(minimal)
        for c in (2, 3, Fraction(1, 2)):
            scaled = orders.lattice_discriminant(scale_lattice(minimal, c))
            assert scaled == Fraction(c) ** (2 * ctx.dim) * base


class TestIdealOps:
    def test_ring_times_ring(self):
        ctx = f23_context()
        ring = orders.minimal_order(ctx)
        assert orders.product(ring, ring) == ring

    def test_principal_ideals_invertible(self):
        rng = random.Random(43)
        ctx = f23_context()
        ring = orders.minimal_order(ctx)
        for _ in range(20):
            x = element(ctx, [rng.randrange(-4, 5) for _ in range(4)])
            if all(c == 0 for c in x):
                continue
            ideal = lattice_from_elements(ctx, [times(ctx, row, x) for row in basis(ring)])
            assert is_invertible_over(ideal, ring)

    def test_colon_against_inverse_oracle(self):
        rng = random.Random(83)
        contexts = [f23_context(), orders.FieldContext([5, -3, 1], 5)]
        for _ in range(8):
            spec = random_surface_spec(rng, qmax=500)
            contexts.append(orders.FieldContext(list(spec.f), spec.q))
        pairs = mixed = 0
        for ctx in contexts:
            base = orders.minimal_order(ctx)
            for _ in range(4):
                a = random_sublattice(rng, ctx, base)
                b = random_sublattice(rng, ctx, base)
                c = Fraction(rng.choice([1, 2, 3, 5]), rng.choice([1, 2, 7]))
                for x, y in (
                    (a, b),
                    (a, orders.trace_dual(a)),
                    (scale_lattice(a, c), b),
                    (a, scale_lattice(b, c)),
                ):
                    assert orders.colon(x, y) == colon_by_inverse(x, y)
                    pairs += 1
                    mixed += x.den != y.den
        assert pairs >= 100 and 0 < mixed < pairs

    def test_colon_rejects_foreign_context(self):
        a = orders.minimal_order(f23_context())
        b = orders.minimal_order(f23_context())
        with pytest.raises(DomainError, match="different contexts"):
            orders.colon(a, b)

    def test_trace_dual_invertible_over_minimal(self):
        ctx = f23_context()
        ring = orders.minimal_order(ctx)
        assert is_invertible_over(orders.trace_dual(ring), ring)


class TestJson:
    def test_round_trip(self, tmp_path):
        import json

        ctx, lattice = orders.load_order_file(INCONVENIENT_ORDER)
        payload = orders.lattice_to_json(lattice)
        path = tmp_path / "order.json"
        path.write_text(json.dumps(payload))
        ctx2, lattice2 = orders.load_order_file(str(path))
        assert lattice2.den == lattice.den
        assert lattice2.rows == lattice.rows

    def test_foreign_field_rejected(self):
        ctx, lattice = orders.load_order_file(INCONVENIENT_ORDER)
        payload = orders.lattice_to_json(lattice)
        other = orders.FieldContext(F23, 23)
        with pytest.raises(DomainError):
            orders.lattice_from_json(payload, ctx=other)
