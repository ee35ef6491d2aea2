import random
from fractions import Fraction
from math import gcd, isqrt

import pytest

import class_number_oracle
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


class TestFlatKernel:
    """`_fundamental_class_number` against the list-based count it replaced."""

    def test_every_small_fundamental_discriminant(self):
        for d in range(-100_000, -2):
            if d % 4 in (0, 1) and quadratic.is_fundamental(d):
                h = class_number_oracle.fundamental_class_number(d)
                assert quadratic._fundamental_class_number(d) == h, d

    def test_random_fundamental_discriminants_near_a_billion(self):
        rng = random.Random(27)
        for _ in range(200):
            d = random_fundamental(rng, 10**8, 10**9 + 1)
            h = class_number_oracle.fundamental_class_number(d)
            assert quadratic._fundamental_class_number(d) == h, d

    def test_budget_refuses_before_the_sieve(self, monkeypatch):
        def no_sieve(limit):
            raise AssertionError("sieved past the class-number budget")

        monkeypatch.setattr(quadratic, "MAX_CLASS_NUMBER_DISC", 10**6)
        h = class_number_oracle.fundamental_class_number(-999_995)
        assert quadratic.class_number_imaginary(-999_995) == h
        monkeypatch.setattr(arith, "_sieve", no_sieve)
        with pytest.raises(DomainError) as exc:
            quadratic.class_number_imaginary(-1_000_003)
        assert str(exc.value) == "class number needs |delta0| <= 1000000, got a 20-bit delta0"


class TestSquareRoots:
    def test_sqrt_mod_prime_every_residue_below_3000(self):
        # p = 3 mod 4, 5 mod 8 and 1 mod 8 each take their own branch
        for p in arith._prime_sieve(2999)[1:]:
            roots = {}
            for x in range(1, p):
                roots.setdefault(x * x % p, set()).add(x)
            for a, xs in roots.items():
                assert quadratic._sqrt_mod_prime(a, p) in xs, (a, p)

    def test_hensel_sqrt_to_the_fourth_power(self):
        for p in arith._prime_sieve(49)[1:]:
            residues = {x * x % p for x in range(1, p)}
            for k in range(1, 5):
                mod = p**k
                for d in range(-2 * p * p, 2 * p * p):
                    if d % p in residues:
                        r = quadratic._hensel_sqrt(d, p, k)
                        assert 0 <= r < mod and (r * r - d) % mod == 0, (d, p, k)

    def test_callers_pass_only_residues(self, monkeypatch):
        # the roots drop Euler's criterion: every caller must already know
        # that a is a nonzero square mod p
        sqrt_mod_prime = quadratic._sqrt_mod_prime
        seen = []

        def checked(a, p):
            assert pow(a, p >> 1, p) == 1, (a, p)
            seen.append(p)
            return sqrt_mod_prime(a, p)

        monkeypatch.setattr(quadratic, "_sqrt_mod_prime", checked)
        for d in range(-5_000, -2):
            if d % 4 in (0, 1):
                quadratic.class_number_imaginary(d)
        for a, b in ((4, 1), (7, 2), (9, 4), (23, 5), (-31, 7)):
            factor_element_ideal(21, real_quad_element(a, b, 21))
        assert {p % 8 for p in seen} == {1, 3, 5, 7}


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

    def test_is_fundamental_sweep(self):
        # d = 1 mod 4 squarefree, or d = 4m with m = 2, 3 mod 4 squarefree;
        # squarefree |d| below 20000 from a sieve over the squares
        bound = 20_000
        squarefree = [True] * (bound + 1)
        squarefree[0] = False
        for k in range(2, isqrt(bound) + 1):
            squarefree[k * k :: k * k] = [False] * (bound // (k * k))
        fundamental = 0
        for d in range(-bound, bound):
            expected = d != 1 and (
                (d % 4 == 1 and squarefree[abs(d)])
                or (d % 4 == 0 and d // 4 % 4 in (2, 3) and squarefree[abs(d) // 4])
            )
            assert quadratic.is_fundamental(d) is expected, d
            fundamental += expected
        assert fundamental > 12_000  # about 6/pi^2 of the sweep
