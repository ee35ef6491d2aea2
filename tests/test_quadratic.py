import random
from fractions import Fraction
from math import gcd, isqrt

import pytest

from ideal_oracle import RealQuadElement, brute_force_unit_norm, factor_element_ideal
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
    return RealQuadElement(Fraction(a), Fraction(b), d)


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

    def test_against_census_walk_every_small_prime(self):
        # every trace of every prime 5 <= p < 1500, and of p = 10007
        for p in [p for p in range(5, 1500) if arith.is_prime(p)] + [10007]:
            counts = census._reduced_form_counts(p)
            for t in range(1, isqrt(4 * p) + 1):
                assert counts[t] == quadratic.kronecker_class_number(t * t - 4 * p), (p, t)

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


class TestUnitNorm:
    def test_against_pell_search(self):
        for d in range(5, 150):
            if d % 4 not in (0, 1) or isqrt(d) ** 2 == d:
                continue
            # the search ends by y = 2968, at d = 129; below 200 it runs to
            # y = 253970, at d = 193
            norm = brute_force_unit_norm(d, 10**4)
            assert norm is not None, d
            assert quadratic.unit_norm(d) == norm, d

    def test_pinned_norms(self):
        # norms of the fundamental units in the former unit and class-number
        # tables; 20, 32, 45 and 92 are non-maximal orders
        table = {
            5: -1, 8: -1, 12: 1, 13: -1, 20: -1, 21: 1, 24: 1,
            32: 1, 40: -1, 45: 1, 60: 1, 61: -1, 92: 1, 229: -1,
        }
        for disc, norm in table.items():
            assert quadratic.unit_norm(disc) == norm, disc

    @pytest.mark.parametrize("delta", [16, -3, 6])
    def test_rejects_bad_discriminants(self, delta):
        with pytest.raises(DomainError):
            quadratic.unit_norm(delta)


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
