import math
import random
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from lattice_oracle import resultant
from poly_oracle import cell_fractions, poly_derivative, real_roots, sturm_chain, weil_angles
from surface_sampler import random_surface_spec

from ppav import arith, strata, weil
from ppav.errors import DomainError, NotWeilShape, UnsupportedDegree

F23 = [529, -138, 32, -6, 1]


def poly_mul(a, b):
    """Product of two nonzero integer polynomials."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def compose_real_companion(g, q):
    """Oracle: expand x^n g(x + q/x) with exact Fraction polynomials."""
    n = len(g) - 1
    # work with Laurent coefficients shifted by n: x^n * (x + q/x)^k
    total = {}
    for k, coeff in enumerate(g):
        # (x + q/x)^k = sum_j C(k,j) q^j x^(k-2j)
        for j in range(k + 1):
            e = n + k - 2 * j
            total[e] = total.get(e, 0) + coeff * math.comb(k, j) * q**j
    out = [0] * (max(total) + 1)
    for e, c in total.items():
        assert e >= 0
        out[e] = c
    return arith.poly_trim(out)


class TestRealWeil:
    def test_elliptic_case(self):
        assert weil.real_weil_polynomial([7, -3, 1], 7) == [-3, 1]

    def test_surface_shape_oracle(self):
        rng = random.Random(2)
        for _ in range(100):
            q = rng.randrange(2, 200)
            g = [rng.randrange(-15, 16), rng.randrange(-15, 16), 1]
            f = compose_real_companion(g, q)
            assert weil.real_weil_polynomial(f, q) == g

    def test_f23(self):
        g = weil.real_weil_polynomial(F23, 23)
        assert g == [-14, -6, 1]
        # pi + pibar = 3 + sqrt(23) is a root: evaluate exactly in Z[sqrt 23]
        a, b = 3, 1  # 3 + 1*sqrt(23)
        # g(a + b s) with s^2 = 23: (a+bs)^2 - 6(a+bs) - 14
        const = a * a + b * b * 23 - 6 * a - 14
        coeff_s = 2 * a * b - 6 * b
        assert const == 0 and coeff_s == 0

    def test_functional_equation_violation(self):
        with pytest.raises(NotWeilShape):
            weil.real_weil_polynomial([1, 1, 1, 0, 1], 2)

    def test_non_monic_rejected(self):
        with pytest.raises(NotWeilShape):
            weil.real_weil_polynomial([2, 0, 2], 2)

    def test_quartic_read_off_matches_general_expansion(self):
        rng = random.Random(17)
        for trial in range(2000):
            q = rng.choice([2, 4, 5, 23, 1024, rng.randrange(-50, 10**6), 10**30 + 57])
            a, b = rng.randrange(-(10**4), 10**4), rng.randrange(-(10**6), 10**6)
            f = [q * q, a * q, b, a, 1]
            if trial % 2:  # break the shape in one low coefficient
                f[rng.randrange(2)] += rng.choice([-1, 1, q, rng.randrange(-9, 10)])
            f += [0] * rng.randrange(3)  # trailing zeros are trimmed first
            try:
                expected = weil._real_weil_by_expansion(arith.poly_trim(f), 2, q)
            except NotWeilShape as exc:
                with pytest.raises(NotWeilShape) as got:
                    weil.real_weil_polynomial(f, q)
                assert str(got.value) == str(exc)
                continue
            assert weil.real_weil_polynomial(f, q) == expected == [b - 2 * q, a, 1]


def weil_class_or_none(f, q):
    """The isogeny class of f over F_q, or None when f is not Weil."""
    try:
        return weil.isogeny_class(f, q)
    except NotWeilShape:
        return None


class TestIsWeil:
    def test_small_trace_true(self):
        assert weil.isogeny_class([5, -3, 1], 5).n == 1

    def test_large_trace_false(self):
        with pytest.raises(NotWeilShape):
            weil.isogeny_class([5, -5, 1], 5)

    def test_f23(self):
        assert weil.isogeny_class(F23, 23).n == 2

    def test_functional_equation_failure_is_false(self):
        with pytest.raises(NotWeilShape):
            weil.isogeny_class([1, 1, 1, 0, 1], 2)

    def test_boundary_double_root_square_q(self):
        # x^2 - 6x + 9 = (x-3)^2 over F_9: both roots have absolute value 3
        assert weil.isogeny_class([9, -6, 1], 9).n == 1
        with pytest.raises(NotWeilShape):
            weil.isogeny_class([9, -7, 1], 9)

    def test_companion_with_complex_roots(self):
        # g = x^2 + 1 has no real roots, so f = x^2 g(x + q/x) is not Weil
        q = 7
        f = [q * q, 0, 2 * q + 1, 0, 1]
        with pytest.raises(NotWeilShape):
            weil.isogeny_class(f, q)

    def test_companion_with_straddling_roots(self):
        # g = (x - 1)(x - 3q): one root inside the bracket, one outside
        q = 5
        f = [q * q, -16 * q, 15 + 2 * q, -16, 1]
        assert weil.real_weil_polynomial(f, q) == [15, -16, 1]
        with pytest.raises(NotWeilShape):
            weil.isogeny_class(f, q)

    @pytest.mark.parametrize(
        "q, g, expected",
        [
            (5, [-20, 0, 1], True),  # g = y^2 - 4q: roots exactly at +-2 sqrt(5)
            (9, [6, 1], True),  # the elliptic class x^2 + 6x + 9, root -6
            (9, [7, 1], False),  # 7 > 2 sqrt(9)
            (9, poly_mul([-6, 1], [1, 1]), True),  # roots 6, -1: a square discriminant
            (9, [-36, 0, 1], True),  # roots 6, -6
            (9, poly_mul([-6, 1], [-6, 1]), True),  # double root at 2 sqrt(9)
            (9, poly_mul([-6, 1], [7, 1]), False),  # roots 6 and -7
            (9, [1, 0, 1], False),  # nonreal roots +-i
        ],
    )
    def test_companion_divisible_by_boundary(self, q, g, expected):
        f = compose_real_companion(g, q)
        assert weil.real_weil_polynomial(f, q) == g
        spec = weil_class_or_none(f, q)
        assert (spec is not None) is expected
        if expected:
            angles = spec.angles
            assert len(angles) == len(g) - 1
            assert any(min(a, math.pi - a) < 1e-6 for a in angles)  # a root at +-2 sqrt(q)

    def test_boundary_factor_nonsquare_q(self):
        # g = x^2 - 4q exactly: f = (x^2 - 2 sqrt(q) x + q)(x^2 + 2 sqrt(q) x + q)
        q = 5
        f = poly_mul([q, 0, 1], [q, 0, 1])
        f = arith.poly_sub(f, [0, 0, 4 * q])  # (x^2+q)^2 - 4q x^2
        assert weil.isogeny_class(f, q).g == (-4 * q, 0, 1)

    @pytest.mark.parametrize(
        "f, q",
        [
            ([2, 0, 1], 1),  # q below 2
            ([4, 0, 2], 2),  # not monic
            ([4, 0, 0, 1], 2),  # odd degree
            ([1], 2),  # degree 0
        ],
    )
    def test_bad_shape_or_field(self, f, q):
        # a bad field size is a plain domain error, a bad shape NotWeilShape
        with pytest.raises(DomainError) as raised:
            weil.isogeny_class(f, q)
        assert (type(raised.value) is NotWeilShape) is (q >= 2)


class TestOrdinarySimple:
    def test_ordinary_elliptic(self):
        assert weil.isogeny_class([7, -3, 1], 7).ordinary is True
        assert weil.isogeny_class([7, 0, 1], 7).ordinary is False  # supersingular

    def test_ordinary_middle_coefficient(self):
        assert weil.isogeny_class([4, 0, 2, 0, 1], 2).ordinary is False
        assert weil.isogeny_class(F23, 23).ordinary is True

    def test_family_members_ordinary(self):
        for p in (7, 23, 31, 47):
            a = math.isqrt(p) - 1
            f = [p * p, -2 * a * p, a * a + p, -2 * a, 1]
            assert weil.isogeny_class(f, p).ordinary is True

    def test_product_of_quadratics_not_simple(self):
        assert weil.is_simple([4, 0, 5, 0, 1]) is False

    def test_f23_simple(self):
        assert weil.is_simple(F23) is True

    def test_constant_term_divisors_listed_once(self, monkeypatch):
        # the rational-root and quadratic-factor searches share one list
        calls = []
        divisors = arith.divisors

        def counted(n):
            calls.append(n)
            return divisors(n)

        monkeypatch.setattr(arith, "divisors", counted)
        assert weil.is_simple(F23) is True
        assert calls == [529]

    def test_closed_simplicity_against_search(self):
        # every Weil class with n <= 2 over F_q, q <= 40, non-ordinary included
        kinds = [(n, ordinary, simple) for n in (1, 2) for ordinary in (1, 0) for simple in (1, 0)]
        counts = dict.fromkeys(kinds, 0)
        for q in range(2, 41):
            if arith.is_prime_power(q) is None:
                continue
            s = isqrt(16 * q)
            classes = [(q, -t, 1) for t in range(-isqrt(4 * q), isqrt(4 * q) + 1)]
            for a in range(-s, s + 1):
                lo, hi = region_bounds(q, a)
                classes += [(q * q, a * q, b, a, 1) for b in range(lo, hi + 1)]
            for f in classes:
                spec = weil.isogeny_class(f, q)
                assert spec.simple is weil.is_simple(f), (f, q)
                assert spec.ordinary is (math.gcd(f[spec.n], q) == 1), (f, q)
                counts[spec.n, spec.ordinary, spec.simple] += 1
        # an ordinary elliptic class is always simple; every other kind occurs
        assert counts.pop((1, True, False)) == 0
        assert min(counts.values()) > 0
        assert counts[2, True, True] > 5 * counts[2, True, False]

    def test_spec_simple_needs_no_divisors(self, monkeypatch):
        def refuse(*args):
            raise AssertionError(f"search called on {args}")

        monkeypatch.setattr(arith, "divisors", refuse)
        monkeypatch.setattr(weil, "is_simple", refuse)
        assert weil.isogeny_class(F23, 23).simple is True
        assert weil.isogeny_class([25, -30, 19, -6, 1], 5).simple is False
        assert weil.isogeny_class([100000007, -3, 1], 100000007).simple is True
        # non-ordinary classes: (x^2 + 2x + 2)(x^2 - 2x + 2) over F_2, and
        # (x^2 - 5)^2 over F_5, whose companion is g = x^2 - 4q
        assert weil.isogeny_class([4, 0, 0, 0, 1], 2).simple is False
        assert weil.isogeny_class([25, 0, -10, 0, 1], 5).simple is False
        assert weil.isogeny_class([9, -6, 1], 9).simple is False
        assert weil.isogeny_class([5, 0, 1], 5).simple is True

    def test_elliptic_simple(self):
        assert weil.is_simple([2, -1, 1]) is True

    def test_linear_times_cubic(self):
        f = poly_mul([-1, 1], [2, 0, 0, 1])
        assert weil.is_simple(f) is False

    def test_rational_root(self):
        assert weil.is_simple([-8, 0, 0, 0, 1]) is True  # x^4 - 8, Eisenstein at 2
        assert weil.is_simple([-16, 0, 0, 0, 1]) is False  # (x-2)(x+2)(x^2+4)

    def test_degree_cap(self):
        with pytest.raises(UnsupportedDegree):
            weil.is_simple([1, 0, 0, 0, 0, 0, 1])
        # a Weil sextic and a sextic that breaks the functional equation are
        # refused alike, after the shape check and before g is read off
        g = poly_mul(poly_mul([-1, 1], [-2, 1]), [3, 1])
        for f in (compose_real_companion(g, 7), [1, 0, 0, 0, 0, 0, 1]):
            with pytest.raises(UnsupportedDegree, match="implemented up to degree 4"):
                weil.isogeny_class(f, 7)
        with pytest.raises(NotWeilShape):
            weil.isogeny_class([1, 0, 0, 0, 0, 1], 7)


class TestAngles:
    def test_symmetric_case(self):
        assert weil.isogeny_class([5, 0, 1], 5).angles == (math.pi / 2,)

    def test_f23_frozen_oracle_values(self):
        angles = weil.isogeny_class(F23, 23).angles
        # oracle: arccos((3 +- sqrt 23) / (2 sqrt 23)) via independent numerics
        assert abs(angles[0] - 0.6219024037599072) < 1e-12
        assert abs(angles[1] - 1.7591361948916167) < 1e-12

    def test_small_angle_monotone_in_trace(self):
        q = 10007
        prev = math.pi
        for t in range(1, 2 * math.isqrt(q), 13):
            theta = weil.isogeny_class([q, -t, 1], q).angles[0]
            assert 0 < theta < prev
            prev = theta

    def test_multiplicity(self):
        q = 5
        f = poly_mul([q, -3, 1], [q, -3, 1])
        angles = weil.isogeny_class(f, q).angles
        assert len(angles) == 2
        assert abs(angles[0] - angles[1]) < 1e-15

    def test_against_numpy_eigenvalue_oracle(self):
        import numpy as np

        rng = random.Random(12)
        for _ in range(50):
            spec = random_surface_spec(rng, qmax=5000)
            roots = np.roots(list(reversed(spec.f)))
            oracle = sorted(abs(float(np.angle(r))) for r in roots)[::2]
            for got, want in zip(spec.angles, sorted(oracle)):
                assert abs(got - want) < 1e-8


class TestSpecValidation:
    def test_isogeny_class_f23(self):
        spec = weil.isogeny_class(F23, 23)
        assert spec.n == 2
        assert spec.g == (-14, -6, 1)
        assert spec.f[spec.n] == 32

    def test_one_pass_per_class(self, monkeypatch):
        # one read-off of g per class; only irrational roots are refined
        calls = {"real_weil_polynomial": 0, "quadratic_real_roots": 0}
        for module in (weil, arith):
            for name in calls:
                if hasattr(module, name):
                    fn = getattr(module, name)

                    def counted(*args, _fn=fn, _name=name):
                        calls[_name] += 1
                        return _fn(*args)

                    monkeypatch.setattr(module, name, counted)
        cases = [
            (F23, 23, 1),  # g = y^2 - 6y - 14: irrational roots
            (compose_real_companion([2, -3, 1], 7), 7, 0),  # (y - 1)(y - 2)
            (compose_real_companion([9, -6, 1], 7), 7, 0),  # (y - 3)^2
            ([5, -3, 1], 5, 0),  # g = y - 3
        ]
        for f, q, refined in cases:
            calls.update(dict.fromkeys(calls, 0))
            spec = weil.isogeny_class(f, q)
            assert list(calls.values()) == [1, refined], f
            assert list(spec.angles) == weil_angles(list(spec.g), q)

    def test_rejects_non_prime_power(self):
        with pytest.raises(DomainError):
            weil.isogeny_class([6, -3, 1], 6)

    def test_rejects_off_circle(self):
        with pytest.raises(NotWeilShape):
            weil.isogeny_class([4, 0, 5, 0, 1], 2)

    def test_functional_equation_exact_on_random_specs(self):
        rng = random.Random(4)
        for _ in range(100):
            spec = random_surface_spec(rng, qmax=2000)
            f, q, n = list(spec.f), spec.q, spec.n
            # x^(2n) f(q/x) = q^n f(x): coefficient of x^j is f_(2n-j) q^(2n-j)
            lhs = [f[2 * n - j] * q ** (2 * n - j) for j in range(2 * n + 1)]
            rhs = [c * q**n for c in f]
            assert lhs == rhs

    def test_angle_coefficient_round_trip(self):
        rng = random.Random(8)
        for _ in range(1000):
            spec = random_surface_spec(
                rng, qmax=10_000, require_ordinary=False, require_simple=False
            )
            q = spec.q
            rebuilt = [1.0]
            for theta in spec.angles:
                factor = [q, -2.0 * math.sqrt(q) * math.cos(theta), 1.0]
                out = [0.0] * (len(rebuilt) + 2)
                for i, x in enumerate(rebuilt):
                    for j, y in enumerate(factor):
                        out[i + j] += x * y
                rebuilt = out
            for built, exact in zip(rebuilt, spec.f):
                scale = max(1.0, abs(exact))
                assert abs(built - exact) / scale < 1e-8

    def test_sign_flip(self):
        rng = random.Random(6)
        for _ in range(100):
            spec = random_surface_spec(rng, qmax=5000)
            flipped = [c if i % 2 == 0 else -c for i, c in enumerate(spec.f)]
            flipped_angles = weil.isogeny_class(flipped, spec.q).angles
            expected = sorted(math.pi - a for a in spec.angles)
            for got, want in zip(flipped_angles, expected):
                assert abs(got - want) < 1e-12

    def test_strict_inequalities_for_simple_ordinary(self):
        rng = random.Random(10)
        for _ in range(200):
            spec = random_surface_spec(rng, qmax=10_000)
            assert 0 < spec.angles[0] < spec.angles[1] < math.pi


def norms_by_resultants(g, q):
    """(|res(g, y^2 - 4q)|, |res(g, g')|): the Sylvester route."""
    return abs(resultant(g, [-4 * q, 0, 1])), abs(resultant(g, poly_derivative(g)))


class TestDiscriminantNorms:
    def test_f23(self):
        # product of (r^2 - 92) over the roots of x^2 - 6x - 14, and 36 + 56
        spec = weil.isogeny_class(F23, 23)
        assert spec.discriminant_norms == weil.real_discriminant_norms(spec.g, 23) == (2772, 92)
        assert 2772 == (23 - 9) * (9 * 23 - 9)

    def test_linear_g(self):
        # N(alpha^2 - 4q) for alpha = t is the value of y^2 - 4q at t
        assert weil.real_discriminant_norms((-3, 1), 5) == (11, 1)

    def test_surface_classes_against_resultants(self):
        rng = random.Random(17)
        for k in range(320):
            spec = random_surface_spec(
                rng, qmax=10_000, require_ordinary=k % 2 == 0, require_simple=k % 4 == 0
            )
            assert spec.discriminant_norms == norms_by_resultants(list(spec.g), spec.q), spec

    def test_elliptic_traces_against_resultants(self):
        count = 0
        for q in (2, 3, 4, 5, 7, 8, 9, 23, 97, 1009):
            for t in range(-math.isqrt(4 * q), math.isqrt(4 * q) + 1):
                if t * t < 4 * q and math.gcd(t, q) == 1:
                    spec = weil.isogeny_class([q, -t, 1], q)
                    assert spec.discriminant_norms == norms_by_resultants([-t, 1], q)
                    count += 1
        assert count > 150


def angle_bits(g):
    """The refinement depth `isogeny_class` uses for the angles of g."""
    return 64 + max(abs(c) for c in g).bit_length()


def surface_companion(q, a, b):
    """g = x^2 + a x + (b - 2q), the real companion of x^4 + a x^3 + b x^2 + qa x + q^2."""
    return [b - 2 * q, a, 1]


def in_region(q, a, b):
    """Whether x^4 + a x^3 + b x^2 + qa x + q^2 is Weil, from `region_bounds`."""
    if a * a > 16 * q:
        return False
    lo, hi = region_bounds(q, a)
    return lo <= b <= hi


def region_bounds(q, a):
    """The b with x^4 + a x^3 + b x^2 + qa x + q^2 Weil, for a^2 <= 16q:
    ceil(2|a| sqrt(q)) - 2q <= b <= floor(a^2 / 4) + 2q."""
    m = 4 * a * a * q
    s = isqrt(m)
    return s + (s * s != m) - 2 * q, a * a // 4 + 2 * q


def weil_count(q):
    """Number of Weil (a, b) over F_q, one isqrt per a."""
    s = isqrt(16 * q)
    return sum(hi - lo + 1 for lo, hi in (region_bounds(q, a) for a in range(-s, s + 1)))


class TestQuadraticClosedForm:
    """The closed-form test and roots for quadratic g against the region
    bounds and the reference Sturm path."""

    def assert_roots_match(self, g):
        bits = angle_bits(g)
        cells = arith.quadratic_real_roots(g, bits)
        assert cell_fractions(cells) == real_roots(g, sturm_chain(g), bits), g

    def test_cell_division_is_the_fraction_float(self):
        # `_angles` divides n / den; int true division rounds correctly, so
        # it gives the double float(Fraction(n, den)) does, past 2^53 too,
        # and float(n) for the integer roots (den 1)
        rng = random.Random(27)
        cells = []
        while len(cells) < 300:
            size = 10 ** rng.choice([3, 12, 40])
            b, c = rng.randrange(-size, size + 1), rng.randrange(-size, size + 1)
            disc = b * b - 4 * c
            if disc > 0 and isqrt(disc) ** 2 != disc:
                cells.append(arith.quadratic_real_roots([c, b, 1], angle_bits([c, b, 1])))
        for k in range(400):
            n = rng.choice([-1, 1]) * rng.getrandbits(rng.randrange(54, 400))
            cells.append((1 << rng.randrange(0, 300) if k % 4 else 1, [n]))
        wide = 0
        for den, nums in cells:
            for n in nums:
                x, exact = n / den, Fraction(n, den)
                assert x == float(exact), (n, den)
                assert den > 1 or x == float(n), n
                # no neighbouring double is nearer the exact value
                err = abs(Fraction(x) - exact)
                for toward in (-math.inf, math.inf):
                    assert err <= abs(Fraction(math.nextafter(x, toward)) - exact), (n, den)
                wide += abs(n) >= 2**53
        assert wide >= 900

    def test_golden_surfaces(self):
        from test_cli import GOLDEN_SURFACES

        for q, a, b in GOLDEN_SURFACES:
            self.assert_roots_match(surface_companion(q, a, b))

    def test_family_members(self):
        members = 0
        for kind in ("small", "smaller", "smallest"):
            for p in strata.family_primes(10**4):
                g = weil.real_weil_polynomial(strata._family_polynomial(kind, p), p)
                self.assert_roots_match(g)
                members += 1
        assert members == 924

    def test_random_surface_specs(self):
        rng = random.Random(5)
        for _ in range(3000):
            self.assert_roots_match(list(random_surface_spec(rng, qmax=10**6).g))

    @settings(max_examples=200, derandomize=True, deadline=None, database=None)
    @given(st.data())
    def test_big_fields_near_the_region(self, data):
        # q up to about 10^36, a up to one step past |a| <= 4 sqrt(q), and b
        # within a few steps of the region's rim or anywhere inside it
        q = data.draw(st.integers(2, 10**36), label="q")
        s = isqrt(16 * q)
        a = data.draw(st.integers(-s - 1, s + 1), label="a")
        # near |a| = 4 sqrt(q) the rim can cross, lo = hi + 1, an empty row
        lo, hi = region_bounds(q, min(abs(a), s))
        b = data.draw(
            st.one_of(
                st.integers(lo - 3, lo + 3),
                st.integers(hi - 3, hi + 3),
                st.integers(min(lo, hi), max(lo, hi)),
            ),
            label="b",
        )
        g = surface_companion(q, a, b)
        assert weil._quadratic_in_weil_region(g[0], g[1], q) == in_region(q, a, b)
        disc = a * a - 4 * g[0]
        if disc > 0 and isqrt(disc) ** 2 != disc:
            self.assert_roots_match(g)
            cells = arith.quadratic_real_roots(g, 80)
            assert cell_fractions(cells) == real_roots(g, sturm_chain(g), 80)


class TestWeilRegion:
    """Every (a, b) in a box one step past the Weil region of the surfaces."""

    @pytest.mark.parametrize("q, count", [(4, 101), (8, 253), (9, 311), (23, 1193), (25, 1371)])
    def test_both_paths_agree_on_the_box(self, q, count):
        s = isqrt(16 * q)
        found = 0
        for a in range(-s - 1, s + 2):
            for b in range(-2 * q - 1, 6 * q + 2):
                spec = weil_class_or_none((q * q, a * q, b, a, 1), q)
                assert (spec is not None) == in_region(q, a, b), (a, b)
                if spec is None:
                    continue
                found += 1
                # the closed-form angles are the reference angles, bit for bit
                assert list(spec.angles) == weil_angles(list(spec.g), q), (a, b)
        assert found == count == weil_count(q)

    def test_q_101(self):
        q, s = 101, isqrt(16 * 101)
        found = sum(
            weil._quadratic_in_weil_region(b - 2 * q, a, q)
            for a in range(-s - 1, s + 2)
            for b in range(-2 * q - 1, 6 * q + 2)
        )
        assert found == weil_count(q) == 10865
        # the rim: b at the bounds passes, one step outside fails, in the
        # closed-form test and in `isogeny_class`
        for a in range(-s, s + 1):
            lo, hi = region_bounds(q, a)
            for b, inside in ((lo - 1, False), (lo, True), (hi, True), (hi + 1, False)):
                g = surface_companion(q, a, b)
                assert weil._quadratic_in_weil_region(g[0], g[1], q) is inside, (a, b)
                assert (weil_class_or_none((q * q, a * q, b, a, 1), q) is not None) is inside
        for a in (-s - 1, s + 1):
            b = a * a // 4 + 2 * q
            g = surface_companion(q, a, b)
            assert not weil._quadratic_in_weil_region(g[0], g[1], q)
            assert weil_class_or_none((q * q, a * q, b, a, 1), q) is None

    def test_traces_match_the_reference_angles(self):
        # every trace over small fields, 3000 random traces, and 1000 split
        # g = (y - r)(y - s), double roots and roots on the rim included
        classes = []
        for q in (2, 3, 4, 5, 7, 8, 9, 23, 25, 97, 1009):
            classes += [((q, -t, 1), q) for t in range(-isqrt(4 * q), isqrt(4 * q) + 1)]
        rng = random.Random(21)
        for k in range(4000):
            q = 1
            while arith.is_prime_power(q) is None:
                q = rng.randrange(2, 10 ** rng.randrange(2, 19))
            m = isqrt(4 * q)
            if k < 3000:
                classes.append(((q, rng.randrange(-m, m + 1), 1), q))
            else:
                r, s = (rng.choice([rng.randrange(-m, m + 1), -m, 0, m]) for _ in range(2))
                classes.append((compose_real_companion(poly_mul([-r, 1], [-s, 1]), q), q))
        for p in (3, 101, 10**9 + 7):  # square q: the rim +-2 sqrt(q) is an integer
            for g in ([-2 * p, 1], [2 * p, 1], [-4 * p * p, 0, 1], [p * p, 2 * p, 1]):
                classes.append((compose_real_companion(g, p * p), p * p))
        for f, q in classes:
            spec = weil.isogeny_class(f, q)
            assert list(spec.angles) == weil_angles(list(spec.g), q), (f, q)
