import random
from fractions import Fraction
from math import gcd, isqrt, sqrt

import pytest

from ideal_oracle import factor_element_ideal
from ppav import arith, census, quadratic
from ppav.errors import DomainError


def brute_force_class_number(delta):
    """Oracle: direct double loop over reduced forms |b| <= a <= c."""
    count = 0
    amax = isqrt(-delta // 3)
    for a in range(1, amax + 1):
        for b in range(-a + 1, a + 1):
            num = b * b - delta
            if num % (4 * a) != 0:
                continue
            c = num // (4 * a)
            if c < a:
                continue
            if a == c and b < 0:
                continue
            if gcd(gcd(a, abs(b)), c) == 1:
                count += 1
    return count


def real_quad_element(a, b, d):
    return quadratic.RealQuadElement(Fraction(a), Fraction(b), d)


def random_fundamental(rng, lo, hi):
    while True:
        d = -rng.randrange(lo, hi)
        if d % 4 in (0, 1) and quadratic.is_fundamental(d):
            return d


class TestImaginaryClassNumbers:
    def test_minus_four(self):
        assert quadratic.class_number_imaginary(-4) == 1

    def test_minus_28_hand_enumeration(self):
        assert quadratic.class_number_imaginary(-28) == 1

    def test_minus_112(self):
        assert quadratic.class_number_imaginary(-112) == 2
        # cross-check by the conductor formula route
        assert quadratic.class_number_by_formula(-7, 4) == 2

    def test_against_brute_force(self):
        for d in range(-4000, -2):
            if d % 4 in (0, 1):
                assert quadratic.class_number_imaginary(d) == brute_force_class_number(d)

    def test_against_census_walk(self):
        # the census counts every H(t^2 - 4p) by its own walk over reduced forms
        p = 100003
        counts = census._reduced_form_counts(p)
        for t in range(1, isqrt(4 * p) + 1):
            assert quadratic.kronecker_class_number(t * t - 4 * p) == counts[t]

    def test_pinned_very_large_discriminants(self):
        # values from the earlier sieve over b, which factored every form coefficient
        for d, h in ((-40000000003, 29199), (-100000000003, 31057), (-4000000000003, 290436)):
            assert quadratic.class_number_imaginary(d) == h

    def test_pinned_large_discriminants(self):
        # values computed by the per-form factorization before the sieve
        assert quadratic.class_number_imaginary(-390935380) == 5856
        assert quadratic.class_number_imaginary(-4000012) == 315

    def test_rejects_bad_inputs(self):
        with pytest.raises(DomainError):
            quadratic.class_number_imaginary(5)
        with pytest.raises(DomainError):
            quadratic.class_number_imaginary(-5)

    def test_classical_tables(self):
        # complete lists of fundamental discriminants with h = 1 and h = 2,
        # and the full h = 3 list, from the classical classification
        for d in (-3, -4, -7, -8, -11, -19, -43, -67, -163):
            assert quadratic.class_number_imaginary(d) == 1
        for d in (-15, -20, -24, -35, -40, -51, -52, -88, -91, -115,
                  -123, -148, -187, -232, -235, -267, -403, -427):
            assert quadratic.class_number_imaginary(d) == 2
        for d in (-23, -31, -59, -83, -107, -139, -211, -283, -307,
                  -331, -379, -499, -547, -643, -883, -907):
            assert quadratic.class_number_imaginary(d) == 3


class TestFormula:
    def test_identity_conductor(self):
        assert quadratic.class_number_by_formula(-7, 1) == 1

    def test_conductor_four(self):
        # chi(2) = +1 since -7 = 1 mod 8
        assert quadratic.class_number_by_formula(-7, 4) == 2

    def test_unit_index_at_minus_four(self):
        assert quadratic.class_number_by_formula(-4, 2) == 1
        assert quadratic.class_number_imaginary(-16) == 1

    def test_unit_index_at_minus_three(self):
        assert quadratic.class_number_by_formula(-3, 2) == 1
        assert quadratic.class_number_imaginary(-12) == 1

    def test_matches_enumeration_on_random_orders(self):
        rng = random.Random(23)
        for _ in range(200):
            d0 = random_fundamental(rng, 3, 400)
            f = rng.randrange(1, 30)
            assert quadratic.class_number_by_formula(d0, f) == brute_force_class_number(
                d0 * f * f
            )

    def test_rejects_non_fundamental(self):
        with pytest.raises(DomainError):
            quadratic.class_number_by_formula(-12, 1)


class TestKroneckerClassNumbers:
    def test_fundamental_is_plain(self):
        assert quadratic.kronecker_class_number(-4) == 1

    def test_minus_sixteen(self):
        assert quadratic.kronecker_class_number(-16) == 2

    def test_minus_112(self):
        assert quadratic.kronecker_class_number(-112) == 4
        assert quadratic.stratified_class_numbers(-112) == [(1, 1), (2, 1), (4, 2)]

    def test_sum_oracle(self):
        rng = random.Random(31)
        for _ in range(60):
            d0 = random_fundamental(rng, 3, 200)
            f = rng.randrange(1, 13)
            delta = d0 * f * f
            expected = sum(
                brute_force_class_number(d0 * g * g) for g in arith.divisors(f)
            )
            assert quadratic.kronecker_class_number(delta) == expected

    def test_H_at_least_h(self):
        rng = random.Random(37)
        for _ in range(200):
            d0 = random_fundamental(rng, 3, 300)
            f = rng.randrange(1, 20)
            delta = d0 * f * f
            h = quadratic.class_number_by_formula(d0, f)
            big_h = quadratic.kronecker_class_number(delta)
            assert big_h >= h
            if f == 1:
                assert big_h == h


class TestHOverH:
    def test_minus_112(self):
        assert quadratic.h_over_H_bound(-112) == (Fraction(1, 2), Fraction(3, 4))

    def test_fundamental_trivial(self):
        assert quadratic.h_over_H_bound(-7) == (Fraction(1), Fraction(1))

    def test_p10007_golden_minimum(self):
        # the smallest h/H over the ordinary traces of F_10007, at t = +-32
        delta = 32 * 32 - 4 * 10007
        assert quadratic.h_over_H_bound(delta) == (Fraction(3, 7), Fraction(2, 3))

    def test_minus_63_equality_case(self):
        # the enumeration oracle gives 4/5, which is exactly the bound
        h63 = brute_force_class_number(-63)
        assert h63 == 4
        ratio, bound = quadratic.h_over_H_bound(-63)
        assert ratio == Fraction(h63, h63 + brute_force_class_number(-7))
        assert ratio == Fraction(4, 5) == bound

    def test_bound_holds_on_random_discriminants(self):
        rng = random.Random(41)
        for _ in range(1000):
            d0 = random_fundamental(rng, 5, 500)
            if d0 >= -4:
                continue
            f = rng.randrange(1, 40)
            ratio, bound = quadratic.h_over_H_bound(d0 * f * f)
            assert ratio <= bound


class TestFundamentalUnits:
    def test_golden_ratio_order(self):
        unit, norm = quadratic.fundamental_unit(5)
        assert (unit.a, unit.b, unit.d) == (Fraction(1, 2), Fraction(1, 2), 5)
        assert norm == -1

    def test_z_sqrt2(self):
        unit, norm = quadratic.fundamental_unit(8)
        assert (unit.a, unit.b, unit.d) == (1, 1, 2)
        assert norm == -1

    def test_non_maximal_power(self):
        unit, norm = quadratic.fundamental_unit(32)
        assert (unit.a, unit.b, unit.d) == (3, 2, 2)
        assert norm == 1

    def test_unit_properties_random(self):
        rng = random.Random(43)
        for _ in range(100):
            d = rng.randrange(5, 2000)
            if d % 4 not in (0, 1) or isqrt(d) ** 2 == d:
                continue
            unit, norm = quadratic.fundamental_unit(d)
            assert unit.norm() == norm
            assert abs(norm) == 1
            assert float(unit.a) + float(unit.b) * sqrt(unit.d) > 1

    def test_rejects_square(self):
        with pytest.raises(DomainError):
            quadratic.fundamental_unit(16)

    def test_classical_unit_table(self):
        table = {
            12: (2, 1, 3, 1),            # 2 + sqrt(3), norm +1
            13: (Fraction(3, 2), Fraction(1, 2), 13, -1),
            21: (Fraction(5, 2), Fraction(1, 2), 21, 1),
            24: (5, 2, 6, 1),            # 5 + 2 sqrt(6)
            40: (3, 1, 10, -1),          # 3 + sqrt(10)
            61: (Fraction(39, 2), Fraction(5, 2), 61, -1),
        }
        for disc, (a, b, d, norm) in table.items():
            unit, got_norm = quadratic.fundamental_unit(disc)
            assert (unit.a, unit.b, unit.d, got_norm) == (a, b, d, norm)


class TestRealClassNumbers:
    def test_disc_five(self):
        assert quadratic.class_numbers_real(5) == (1, 1)

    def test_disc_32(self):
        assert quadratic.class_numbers_real(32) == (1, 2)

    def test_disc_92(self):
        # real subring of the q=23 surface class: unit norm +1 forces hplus = 2h
        assert quadratic.class_numbers_real(92) == (1, 2)

    def test_known_class_number_two(self):
        # Q(sqrt 10): h = 2, unit 3 + sqrt(10) of norm -1
        assert quadratic.class_numbers_real(40) == (2, 2)

    def test_known_field_table(self):
        # (disc, h, h+) for a few maximal real quadratic orders
        assert quadratic.class_numbers_real(229) == (3, 3)   # norm -1
        assert quadratic.class_numbers_real(60) == (2, 4)    # Q(sqrt 15), norm +1
        assert quadratic.class_numbers_real(12) == (1, 2)    # Q(sqrt 3), norm +1
        assert quadratic.class_numbers_real(13) == (1, 1)

    def test_non_maximal_orders_in_golden_field(self):
        # conductor-3 order in Q(sqrt 5): unit power index 4, phi^4 norm +1
        assert quadratic.class_numbers_real(45) == (1, 2)
        unit, norm = quadratic.fundamental_unit(45)
        assert (unit.a, unit.b, norm) == (Fraction(7, 2), Fraction(3, 2), 1)
        # conductor-2 order: phi^3 = 2 + sqrt(5), norm -1
        assert quadratic.class_numbers_real(20) == (1, 1)
        unit, norm = quadratic.fundamental_unit(20)
        assert (unit.a, unit.b, norm) == (2, 1, -1)

    def test_narrow_index_rule(self):
        rng = random.Random(47)
        for _ in range(60):
            d = rng.randrange(5, 800)
            if d % 4 not in (0, 1) or isqrt(d) ** 2 == d:
                continue
            h, hplus = quadratic.class_numbers_real(d)
            _, norm = quadratic.fundamental_unit(d)
            assert hplus in (h, 2 * h)
            assert (hplus == h) == (norm == -1)


class TestIdealFactorization:
    def test_unit_is_empty(self):
        assert factor_element_ideal(5, real_quad_element(2, 1, 5)) == []

    def test_ramified_generator(self):
        out = factor_element_ideal(5, real_quad_element(0, 1, 5))
        assert out == [((5, "ramified"), 1)]

    def test_split_norm_eleven(self):
        out = factor_element_ideal(5, real_quad_element(4, 1, 5))
        assert len(out) == 1
        (ell, kind), val = out[0]
        assert ell == 11 and kind in ("split+", "split-") and val == 1

    def test_inert_two(self):
        out = factor_element_ideal(5, real_quad_element(-4, 0, 5))
        assert out == [((2, "inert"), 2)]

    def test_half_integral_elements(self):
        phi = real_quad_element(Fraction(1, 2), Fraction(1, 2), 5)
        assert factor_element_ideal(5, phi) == []

    def test_norm_valuation_consistency(self):
        rng = random.Random(53)
        residue_degree = {"split+": 1, "split-": 1, "inert": 2, "ramified": 1}
        checked = 0
        while checked < 300:
            d = rng.choice([2, 3, 5, 7, 11, 13, 17, 21, 23, 29, 33, 61])
            a = rng.randrange(-60, 61)
            b = rng.randrange(-60, 61)
            if d % 4 == 1 and rng.random() < 0.5:
                x = real_quad_element(Fraction(2 * a + 1, 2), Fraction(2 * b + 1, 2), d)
            else:
                x = real_quad_element(a, b, d)
            norm = x.norm()
            if norm == 0:
                continue
            out = factor_element_ideal(d, x)
            norm_int = abs(int(norm))
            fac = arith.factorize(norm_int) if norm_int > 1 else {}
            per_prime = {}
            for (ell, kind), val in out:
                per_prime[ell] = per_prime.get(ell, 0) + val * residue_degree[kind]
            assert per_prime == fac
            checked += 1

    def test_rejects_non_integral(self):
        with pytest.raises(DomainError):
            factor_element_ideal(5, real_quad_element(Fraction(1, 3), 0, 5))


class TestDecomposition:
    def test_fundamental_decomposition(self):
        assert quadratic.fundamental_decomposition(-112) == (-7, 4)
        assert quadratic.fundamental_decomposition(-16) == (-4, 2)
        assert quadratic.fundamental_decomposition(92) == (92, 1)
        assert quadratic.fundamental_decomposition(45) == (5, 3)

    def test_is_fundamental(self):
        assert quadratic.is_fundamental(-4)
        assert quadratic.is_fundamental(-7)
        assert not quadratic.is_fundamental(-16)
        assert quadratic.is_fundamental(92)
        assert not quadratic.is_fundamental(45)


class TestQuadClassData:
    def test_imaginary(self):
        data = quadratic.quad_class_data(-112)
        assert (data.disc.delta0, data.disc.conductor) == (-7, 4)
        assert (data.h, data.H) == (2, 4)
        assert data.hplus is None and data.fundamental_unit is None

    def test_real(self):
        data = quadratic.quad_class_data(92)
        assert (data.h, data.hplus) == (1, 2)
        assert data.unit_norm == 1
        assert data.H is None
        assert data.fundamental_unit.norm() == 1
