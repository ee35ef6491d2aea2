import io
import math
from fractions import Fraction
from math import isqrt

import pytest

from ppav import census, quadratic, strata
from ppav.errors import DomainError, InternalError


def hurwitz_weighted(delta, big_h):
    """Oracle: H_w(delta), H(delta) with the order of discriminant -3
    weighted 1/3 and that of -4 weighted 1/2, as an exact Fraction."""
    for d0, off in ((3, Fraction(2, 3)), (4, Fraction(1, 2))):
        k, r = divmod(-delta, d0)
        if r == 0 and isqrt(k) ** 2 == k:
            return big_h - off
    return Fraction(big_h)


def reduced_forms(p):
    """Oracle: every reduced form (a, b, c) of discriminant t^2 - 4p with
    1 <= t <= sqrt(4p), as (a, b, c, t), found by stepping c for each (a, b)."""
    for a in range(1, isqrt(4 * p // 3) + 1):
        for b in range(-a + 1, a + 1):
            c = a
            while (square := b * b - 4 * a * c + 4 * p) >= 1:
                t = isqrt(square)
                if t * t == square and (c > a or b >= 0):
                    yield a, b, c, t
                c += 1


class TestEnumerate:
    def test_p5(self):
        rows = census.enumerate_ec(5)
        assert len(rows) == 8
        assert [r.t for r in rows] == [-4, -3, -2, -1, 1, 2, 3, 4]
        assert all(r.H >= 1 for r in rows)
        assert all(r.delta == r.t * r.t - 20 for r in rows)

    def test_p101_count(self):
        rows = census.enumerate_ec(101)
        assert len(rows) == 2 * isqrt(4 * 101) == 40

    def test_class_count_formula(self):
        for p in (5, 13, 101, 1009):
            rows = census.enumerate_ec(p)
            assert len(rows) == 2 * isqrt(4 * p)

    def test_rejects_composite(self):
        with pytest.raises(DomainError):
            census.enumerate_ec(100)

    @pytest.mark.parametrize("p", [5, 7, 11, 101, 1009, 10007])
    def test_kronecker_hurwitz_relation(self, p):
        # enumerate_ec checks the relation itself; recompute it here from
        # the rows it returns
        rows = census.enumerate_ec(p)
        total = sum(hurwitz_weighted(r.delta, r.H) for r in rows)
        total += hurwitz_weighted(-4 * p, quadratic.kronecker_class_number(-4 * p))
        assert total == 2 * p

    def test_hurwitz_weights(self):
        assert hurwitz_weighted(-3, 1) == Fraction(1, 3)
        assert hurwitz_weighted(-12, 2) == Fraction(4, 3)
        assert hurwitz_weighted(-4, 1) == Fraction(1, 2)
        assert hurwitz_weighted(-16, 2) == Fraction(3, 2)
        assert hurwitz_weighted(-20, 2) == 2

    def test_sixfold_weight_matches_oracle(self):
        for delta in range(-3, -2000, -1):
            if delta % 4 in (0, 1):
                big_h = quadratic.kronecker_class_number(delta)
                assert census._sixfold_weight(delta, big_h) == 6 * hurwitz_weighted(delta, big_h)

    def test_wrong_class_number_raises(self, monkeypatch):
        reduced_form_counts = census._reduced_form_counts

        def off_by_one(p):
            counts = reduced_form_counts(p)
            counts[3] += 1
            return counts

        monkeypatch.setattr(census, "_reduced_form_counts", off_by_one)
        # t = 3 and t = -3 each gain one curve, so the exact sum is 2p + 2
        message = "Kronecker-Hurwitz sum 204 != 2p = 202 at p = 101"
        with pytest.raises(InternalError, match=f"^{message}$"):
            census.enumerate_ec(101)


class TestReducedFormWalk:
    # the walk's half-size residue table and its starting b, against a
    # direct enumeration of the reduced forms
    SMALL_PRIMES = [p for p in range(5, 400) if census.arith.is_prime(p)]

    def test_against_form_oracle(self):
        for p in self.SMALL_PRIMES:
            counts = [0] * (isqrt(4 * p) + 1)
            for _, _, _, t in reduced_forms(p):
                counts[t] += 1
            assert census._reduced_form_counts(p) == counts

    # each edge of the walk, as a predicate on a form (a, b, c) of trace t
    EDGES = {
        "r = a": lambda a, b, c, t, p: t % (2 * a) == a,  # its own partner 2a - r
        "t = 0 (mod 2a)": lambda a, b, c, t, p: t % (2 * a) == 0,  # key 0
        "b = a": lambda a, b, c, t, p: b == a,
        "c = a": lambda a, b, c, t, p: c == a and b > 0,
        "a > sqrt(p)": lambda a, b, c, t, p: a * a > p,  # b starts above 0
    }

    @pytest.mark.parametrize("edge", list(EDGES))
    def test_edges_reached(self, edge):
        reached = self.EDGES[edge]
        hits = 0
        for p in self.SMALL_PRIMES:
            counts = census._reduced_form_counts(p)
            for a, b, c, t in reduced_forms(p):
                if reached(a, b, c, t, p):
                    hits += 1
                    assert counts[t] == quadratic.kronecker_class_number(t * t - 4 * p)
        assert hits >= 10


class TestSummarize:
    def test_histogram_exactly_symmetric(self):
        rows = census.enumerate_ec(1009)
        summary = census.summarize(rows, bins=40)
        hist = summary.histogram
        for i in range(len(hist)):
            assert hist[i] == hist[len(hist) - 1 - i]

    def test_masses_sum_to_one(self):
        rows = census.enumerate_ec(101)
        summary = census.summarize(rows, bins=40)
        assert abs(sum(summary.histogram) - 1.0) < 1e-12

    def test_predicted_ratio_near_one(self):
        rows = census.enumerate_ec(101)
        summary = census.summarize(rows)
        assert 0.95 < summary.class_count / summary.predicted_class_count < 1.05

    def test_tv_golden_and_monotone(self):
        tv = {}
        for p in (101, 1009):
            rows = census.enumerate_ec(p)
            tv[p] = census.summarize(rows, bins=40).tv_to_semicircle
        # frozen from the enumeration run; deterministic integer-weight sums
        assert abs(tv[101] - 0.2456984425161723) < 1e-9
        assert tv[1009] < tv[101] + 0.01

    def test_curve_total_matches_stratified_counts(self):
        # the census's reduced-form walk against the per-discriminant sieve
        # behind ec_stratum_counts, on every trace of every prime below 2000
        p = 5
        while p < 2000:
            if census.arith.is_prime(p):
                for r in census.enumerate_ec(p):
                    total = sum(h for _, h in strata.ec_stratum_counts(r.t, p))
                    assert total == r.H
            p += 2

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            census.summarize([])

    @pytest.mark.parametrize("bins", [0, -3])
    def test_bins_below_one_rejected(self, bins):
        with pytest.raises(DomainError):
            census.summarize(census.enumerate_ec(5), bins=bins)


class TestMinusFractionScan:
    # h/H on the discriminants of a census, trace by trace
    @staticmethod
    def by_trace(p):
        return {r.t: quadratic.h_over_H_bound(r.delta) for r in census.enumerate_ec(p)}

    def test_fundamental_traces_have_fraction_one(self):
        # t = 1: delta = -51 fundamental
        assert self.by_trace(13)[1] == (Fraction(1), Fraction(1))

    def test_p29_heavy_trace(self):
        assert self.by_trace(29)[2] == (Fraction(1, 2), Fraction(3, 4))


class TestOutput:
    def test_csv(self):
        rows = census.enumerate_ec(5)
        handle = io.StringIO()
        census.write_census_csv(rows, handle)
        lines = handle.getvalue().strip().splitlines()
        assert lines[0] == "t,delta,H,normalized_trace"
        assert len(lines) == 9

    def test_summary_json(self):
        rows = census.enumerate_ec(101)
        summary = census.summarize(rows, bins=20)
        payload = census.summary_to_json(summary)
        assert payload["p"] == 101
        assert payload["class_count"] == 40
        assert isinstance(payload["curve_total"], str)
        assert len(payload["histogram"]) == 20
