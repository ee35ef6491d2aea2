import math
import random
from fractions import Fraction

import pytest

from ideal_oracle import RealQuadElement, brute_force_unit_norm, factor_element_ideal
from surface_sampler import random_surface_spec
from ppav import arith, orders, quadratic, strata, weil
from ppav.errors import DomainError, InternalError, SearchLimitError

F23 = [529, -138, 32, -6, 1]

# frozen instances where the certificates decline (found by seeded search)
ODD_UNKNOWN = ((160801, 18847, 1096, 47, 1), 401)
SURJ_UNKNOWN = ((24649, -314, -234, -2, 1), 157)

# (Weil polynomial, q, odd_ramified, surjectivity): one class per branch of
# the valuation rule in `strata._odd_valuation_primes`
BRANCH_CLASSES = [
    ((9, 0, -1, 0, 1), 3, "certified", "certified"),  # inert ell = 3, c odd
    ((49, 0, -8, 0, 1), 7, "certified", "certified"),  # split ell = 3, c odd
    ((49, -14, -3, -2, 1), 7, "certified", "unknown"),  # inert, ell | conductor
    ((961, -62, -27, -2, 1), 31, "certified", "unknown"),  # split, ell | conductor
    ((169, -52, 3, -4, 1), 13, "unknown", "unknown"),  # ramified: c odd, v even
]


def oracle_certificates(spec):
    """(odd_ramified, surjectivity) from the full factorization of the ideal
    (alpha^2 - 4q) in the maximal order of K+ = Q(sqrt(rad))."""
    big_b, big_c = spec.g[1], spec.g[0]
    d0, conductor = quadratic.fundamental_decomposition(big_b * big_b - 4 * big_c)
    rad = d0 if d0 % 4 == 1 else d0 // 4
    e = conductor if d0 % 4 == 1 else 2 * conductor
    # alpha = (-B + e sqrt(rad)) / 2
    delta = RealQuadElement(
        Fraction(big_b * big_b, 2) - big_c - 4 * spec.q, Fraction(-big_b * e, 2), rad
    )
    odd = [ell for (ell, _), val in factor_element_ideal(rad, delta) if ell % 2 and val % 2]
    return (
        "certified" if odd else "unknown",
        "certified" if any(conductor % ell for ell in odd) else "unknown",
    )


class TestDiscRatios:
    def test_elliptic(self):
        spec = weil.isogeny_class([5, -3, 1], 5)
        assert strata.disc_ratio_exact(spec) == 11  # |t^2 - 4q|

    def test_f23(self):
        spec = weil.isogeny_class(F23, 23)
        assert strata.disc_ratio_exact(spec) == 255024 == 2772 * 92

    def test_smaller_family_p7(self):
        spec, _ = strata.example_family("smaller", 7)
        assert strata.disc_ratio_exact(spec) == 3505 == 5 * (16 * 49 - 12 * 7 + 1)

    def test_trig_matches_exact(self):
        rng = random.Random(59)
        for _ in range(50):
            spec = random_surface_spec(rng, qmax=10_000)
            exact = strata.disc_ratio_exact(spec)
            trig = strata.disc_ratio_trig(spec)
            assert abs(trig / exact - 1) < 1e-9

    def test_elliptic_trig_symmetric_case(self):
        spec = weil.isogeny_class([5, 0, 1], 5)
        assert abs(strata.disc_ratio_trig(spec) - 20) < 1e-9

    def test_matches_lattice_discriminant_quotient(self):
        rng = random.Random(61)
        for _ in range(25):
            spec = random_surface_spec(rng, qmax=2000)
            ctx = orders.FieldContext(list(spec.f), spec.q)
            minimal = orders.minimal_order(ctx)
            real = orders.real_subring(minimal)
            quotient = abs(
                orders.lattice_discriminant(minimal) / orders.lattice_discriminant(real)
            )
            assert quotient == strata.disc_ratio_exact(spec)


class TestEstimate:
    def test_f23(self):
        spec = weil.isogeny_class(F23, 23)
        assert abs(strata.h_minus_estimate(spec) - math.sqrt(255024)) < 1e-9

    def test_smaller_p7(self):
        spec, _ = strata.example_family("smaller", 7)
        assert abs(strata.h_minus_estimate(spec) - math.sqrt(3505)) < 1e-9

    def test_elliptic_slack_illustration(self):
        # estimator sqrt(112) ~ 10.6 against the true class number 2
        spec = weil.isogeny_class([29, -2, 1], 29)
        estimate = strata.h_minus_estimate(spec)
        assert abs(estimate - math.sqrt(112)) < 1e-9
        assert quadratic.class_number_imaginary(-112) == 2


class TestEcStrata:
    def test_fundamental_single_stratum(self):
        # t = 1, q = 5: delta = -19 fundamental
        counts = strata.ec_stratum_counts(1, 5)
        assert counts == [(1, quadratic.class_number_imaginary(-19))]

    def test_t2_q29(self):
        assert strata.ec_stratum_counts(2, 29) == [(1, 1), (2, 1), (4, 2)]
        assert sum(h for _, h in strata.ec_stratum_counts(2, 29)) == 4

    def test_total_is_kronecker_number(self):
        rng = random.Random(67)
        done = 0
        while done < 1000:
            q = rng.randrange(5, 5000)
            if not strata.arith.is_prime(q):
                continue
            t = rng.randrange(-math.isqrt(4 * q), math.isqrt(4 * q) + 1)
            if t == 0 or t % q == 0:
                continue
            total = sum(h for _, h in strata.ec_stratum_counts(t, q))
            assert total == quadratic.kronecker_class_number(t * t - 4 * q)
            done += 1

    def test_sieve_needs_no_factorization_per_form(self, monkeypatch):
        # delta = -390935380: about 5700 form coefficients, all sieved
        calls = {"factorize": 0, "is_prime": 0}
        for name in calls:
            original = getattr(arith, name)

            def counting(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(arith, name, counting)
        assert strata.ec_stratum_counts(4256, 102262229) == [(1, 5856)]
        assert calls["factorize"] <= 5
        assert calls["is_prime"] == 0

    def test_rejects_non_ordinary(self):
        with pytest.raises(DomainError):
            strata.ec_stratum_counts(3, 9)
        with pytest.raises(DomainError):
            strata.ec_stratum_counts(5, 5)


class TestCertificates:
    def test_smaller_family_prime_norm(self):
        spec, _ = strata.example_family("smaller", 7)
        rad, conductor, norm, ells = strata._odd_valuation_primes(spec)
        assert rad == 5 and conductor == 1
        assert norm == 701 and ells == [701]
        assert strata._certificates(spec) == ("certified", "certified")

    def test_f23(self):
        spec = weil.isogeny_class(F23, 23)
        assert strata._certificates(spec) == ("certified", "certified")

    def test_even_content_only_is_unknown(self):
        f, q = ODD_UNKNOWN
        spec = weil.isogeny_class(list(f), q)
        assert strata._certificates(spec) == ("unknown", "unknown")

    def test_odd_content_inside_conductor_declines(self):
        f, q = SURJ_UNKNOWN
        spec = weil.isogeny_class(list(f), q)
        assert strata._certificates(spec) == ("certified", "unknown")

    def test_matches_ideal_factorization_oracle(self):
        rng = random.Random(5)
        for _ in range(300):
            spec = random_surface_spec(rng, qmax=2000)
            assert strata._certificates(spec) == oracle_certificates(spec), spec.f

    def test_branch_classes(self):
        for f, q, odd, surj in BRANCH_CLASSES:
            spec = weil.isogeny_class(list(f), q)
            assert oracle_certificates(spec) == (odd, surj), f
            assert strata._certificates(spec) == (odd, surj), f
            (report,) = strata.analyze(spec)
            assert (report.odd_ramified, report.surjectivity) == (odd, surj), f

    def test_real_unit_index(self):
        spec = weil.isogeny_class(F23, 23)
        assert strata.real_unit_index(spec) == 2  # disc 92 unit has norm +1
        spec5, _ = strata.example_family("smaller", 7)
        assert strata.real_unit_index(spec5) == 1  # golden ratio has norm -1
        rng = random.Random(61)
        seen = []
        for _ in range(100):
            spec = random_surface_spec(rng, qmax=500)
            norm = brute_force_unit_norm(spec.g[1] ** 2 - 4 * spec.g[0], 10**4)
            if norm is not None:
                seen.append(strata.real_unit_index(spec))
                assert seen[-1] == (1 if norm == -1 else 2), spec.f
        assert len(seen) >= 70 and set(seen) == {1, 2}  # the search ends on 78


class TestFindHeavy:
    def test_golden_m2_d7(self):
        w = strata.find_heavy_isogeny_class(2, -7)
        assert (w.p, w.t, w.delta, w.conductor) == (29, 2, -112, 4)
        assert w.ratio == Fraction(1, 2) and w.bound == Fraction(3, 4)

    def test_golden_m3_d7(self):
        w = strata.find_heavy_isogeny_class(3, -7)
        assert (w.p, w.t, w.delta, w.conductor) == (67, 4, -252, 6)
        assert w.ratio == Fraction(2, 5) and w.bound == Fraction(3, 5)
        assert w.conductor % 3 == 0

    def test_structural_divisibility(self):
        for m, d0 in ((2, -7), (2, -11), (3, -8), (4, -7), (5, -11)):
            w = strata.find_heavy_isogeny_class(m, d0)
            assert w.conductor % m == 0
            assert w.ratio <= w.bound
            assert quadratic.fundamental_decomposition(w.delta)[0] == d0

    def test_limit_exhaustion(self):
        # 1 + 275 is not prime, so the search over x = y = 1 finds nothing
        with pytest.raises(SearchLimitError, match=r"x, y <= 1$"):
            strata.find_heavy_isogeny_class(5, -11, search_limit=1)

    @pytest.mark.parametrize("limit", [0, -1])
    def test_limit_below_one_is_domain_error(self, limit):
        with pytest.raises(DomainError, match=f"at least 1, got {limit}"):
            strata.find_heavy_isogeny_class(2, -7, search_limit=limit)

    def test_rejects_bad_inputs(self):
        with pytest.raises(DomainError):
            strata.find_heavy_isogeny_class(1, -7)
        with pytest.raises(DomainError):
            strata.find_heavy_isogeny_class(2, -12)
        with pytest.raises(DomainError):
            strata.find_heavy_isogeny_class(2, -4)


class TestExampleFamilies:
    def test_small_p23_is_f23(self):
        spec, report = strata.example_family("small", 23)
        assert list(spec.f) == F23
        assert report.ratio_exact == 255024
        lo = 32 * 32 * 23**5
        hi = 144 * 144 * 23**5
        assert lo < report.ratio_exact**2 < hi

    def test_smaller_p7_identity(self):
        _, report = strata.example_family("smaller", 7)
        assert report.ratio_exact == 3505

    def test_smallest_p7(self):
        spec, report = strata.example_family("smallest", 7)
        # c_7 = 4: largest integer below 2 sqrt(7) - 1 ~ 4.29
        assert spec.f == (49, -49, 25, -7, 1)
        assert spec.f[spec.n] == 25
        assert report.bound_checked is False  # p <= 144: no bound applies
        _, big = strata.example_family("smallest", 151)
        assert big.bound_checked is True

    def test_rejects_wrong_residue(self):
        with pytest.raises(DomainError):
            strata.example_family("small", 11)
        with pytest.raises(DomainError):
            strata.example_family("small", 25)

    def test_family_primes(self):
        primes = strata.family_primes(100)
        assert primes == [7, 23, 31, 47, 71, 79]

    def test_family_primes_match_trial_list(self):
        def trial(pmax):
            return [p for p in range(7, pmax) if p % 8 == 7 and arith.is_prime(p)]

        for pmax in [*range(-5, 401), 10**4]:
            assert strata.family_primes(pmax) == trial(pmax), pmax
        # every eighth sieve byte against the filtered list of all primes
        for pmax in (7, 8, 15, 16, 10007):
            primes = arith._prime_sieve(pmax - 1)
            assert strata.family_primes(pmax) == [p for p in primes if p % 8 == 7], pmax


class TestPrimePowerFields:
    def test_surface_over_f9(self):
        # g = x^2 + x - 1: ratio = |N(alpha^2 - 36)| * disc(g) = 1189 * 5
        f9 = [81, 9, 17, 1, 1]
        spec = weil.isogeny_class(f9, 9)
        assert spec.n == 2 and spec.g == (-1, 1, 1)
        assert strata.disc_ratio_exact(spec) == 5945 == 5 * 29 * 41
        assert abs(strata.disc_ratio_trig(spec) / 5945 - 1) < 1e-9
        (report,) = strata.analyze(spec)
        assert report.odd_ramified == "certified"
        assert report.surjectivity == "certified"
        assert report.unit_index_real == 1  # golden-ratio unit has norm -1
        assert report.polarizations_per_variety == 1

    def test_elliptic_over_f4(self):
        spec = weil.isogeny_class([4, -1, 1], 4)
        reports = strata.analyze(spec)
        assert [(r.stratum, r.exact_count) for r in reports] == [("conductor-1", 2)]
        assert quadratic.kronecker_class_number(-15) == 2

    def test_minimal_order_convenient_over_f9(self):
        spec = weil.isogeny_class([81, 9, 17, 1, 1], 9)
        ctx = orders.FieldContext(list(spec.f), spec.q)
        assert orders.convenient_certificate(orders.minimal_order(ctx)).is_convenient


class TestAnalyze:
    def test_elliptic_report(self):
        spec = weil.isogeny_class([5, -3, 1], 5)
        reports = strata.analyze(spec)
        assert len(reports) == 1
        report = reports[0]
        assert report.stratum == "conductor-1"
        assert report.exact_count == 1  # h(-11)
        assert report.estimate is None
        assert report.polarizations_per_variety == 1
        assert report.surjectivity == "certified"

    def test_stratified_elliptic_report(self):
        spec = weil.isogeny_class([29, -2, 1], 29)
        reports = strata.analyze(spec)
        assert [r.stratum for r in reports] == ["conductor-1", "conductor-2", "conductor-4"]
        assert [r.exact_count for r in reports] == [1, 1, 2]

    def test_surface_report(self):
        spec = weil.isogeny_class(F23, 23)
        (report,) = strata.analyze(spec)
        assert report.stratum == "minimal"
        assert report.exact_count is None
        assert report.ratio_exact == 255024
        assert 1 - 1e-9 < report.ratio_trig / report.ratio_exact < 1 + 1e-9
        assert report.surjectivity == "certified"
        assert report.unit_index_real == 2
        assert report.polarizations_per_variety == 2

    def test_unknown_certificates_leave_polarizations_open(self):
        f, q = ODD_UNKNOWN
        (report,) = strata.analyze(weil.isogeny_class(list(f), q))
        assert report.polarizations_per_variety is None
        assert report.norm_unit_index == "1 or 2"

    def test_json_integers_are_strings(self):
        spec = weil.isogeny_class(F23, 23)
        (report,) = strata.analyze(spec)
        payload = strata.report_to_json(report)
        assert payload["ratio_exact"] == "255024"
        assert payload["exact_count"] is None
        assert payload["unit_index_real"] == "2"
        assert isinstance(payload["ratio_trig"], float)

    def test_elliptic_odd_ramification_against_factorization(self):
        # delta0 = -4 (q = 5, t = 2: F = 2) and -8 (q = 3, t = 2) have no odd prime
        assert strata.analyze(weil.isogeny_class([5, -2, 1], 5))[0].odd_ramified == "unknown"
        assert strata.analyze(weil.isogeny_class([3, -2, 1], 3))[0].odd_ramified == "unknown"
        for q in (7, 11, 13, 29, 97):
            for t in range(1, 2 * math.isqrt(q) + 1):
                if t * t >= 4 * q:
                    continue
                reports = strata.analyze(weil.isogeny_class([q, -t, 1], q))
                delta0, _ = quadratic.fundamental_decomposition(t * t - 4 * q)
                odd = any(p % 2 for p in arith.factorize(-delta0))
                assert {r.odd_ramified for r in reports} == {"certified" if odd else "unknown"}

    def test_surface_factorizes_twice(self, monkeypatch):
        # one fundamental decomposition and one factorization of
        # N(alpha^2 - 4q) for the certificates, none for the unit index; the
        # two class norms once per class, in isogeny_class, and never again
        # in a strata reader
        calls = {"factorize": 0, "real_discriminant_norms": 0}
        for module, name in ((arith, "factorize"), (weil, "real_discriminant_norms")):
            original = getattr(module, name)

            def counting(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, counting)
        spec = weil.isogeny_class(F23, 23)
        strata.analyze(spec)
        assert strata.disc_ratio_exact(spec) == 2772 * 92
        strata.h_minus_estimate(spec)
        assert calls == {"factorize": 2, "real_discriminant_norms": 1}

    def test_patched_norm_breaks_closed_form(self, monkeypatch):
        norm, disc_g = weil.isogeny_class(F23, 23).discriminant_norms
        monkeypatch.setattr(weil, "real_discriminant_norms", lambda g, q: (norm + 1, disc_g))
        with pytest.raises(InternalError, match=r"= 11088, but 4 \|N\(alpha\^2 - 4q\)\| = 11092"):
            strata.analyze(weil.isogeny_class(F23, 23))

    def test_rejects_non_simple(self):
        f = [25, -30, 19, -6, 1]  # (x^2 - 3x + 5)^2
        with pytest.raises(DomainError):
            strata.analyze(weil.isogeny_class(f, 5))
