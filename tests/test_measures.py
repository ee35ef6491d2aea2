import io
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from ppav import measures
from ppav.errors import DomainError
from quadrature_oracle import integrate_simplex, vandermonde_sines


class TestConstants:
    def test_v1(self):
        assert measures.constant_v(1) == 4

    def test_v2(self):
        assert measures.constant_v(2) == Fraction(32, 3)

    def test_v3_direct_product(self):
        # independent evaluation of the defining product
        expected = Fraction(2**3, 6)
        for j in (1, 2, 3):
            expected *= Fraction(2 * j, 2 * j - 1) ** (3 + 1 - j)
        v3 = measures.constant_v(3)
        assert v3 == expected == Fraction(1024, 45)
        assert v3 > 0

    def test_c_n(self):
        assert abs(measures.constant_c(1) - 2 / math.pi) < 1e-15
        assert abs(measures.constant_c(2) - 16 / math.pi**2) < 1e-15

    def test_d_nominal(self):
        assert abs(measures.constant_d_nominal(1) - 1 / (4 * math.pi)) < 1e-15


class TestDensities:
    def test_mu1_at_right_angle(self):
        assert abs(measures.density_mu(1, [math.pi / 2]) - 2 / math.pi) < 1e-15

    def test_repeated_coordinate_vanishes(self):
        assert measures.density_mu(2, [0.8, 0.8]) == 0.0
        assert measures.density_nu(2, [0.8, 0.8]) == 0.0

    def test_boundary_vanishes(self):
        assert measures.density_mu(2, [0.0, 1.0]) == 0.0
        # float pi is not exactly pi; the sine factor is ~1e-16 and squared
        assert measures.density_mu(2, [1.0, math.pi]) < 1e-30

    def test_out_of_range_rejected(self):
        with pytest.raises(DomainError):
            measures.density_mu(1, [-0.1])
        with pytest.raises(DomainError):
            measures.density_mu(2, [2.0, 1.0])
        with pytest.raises(DomainError):
            measures.density_nu(1, [0.5], constant="bogus")

    def test_symmetric_under_permutation_before_sorting(self):
        rng = random.Random(71)
        for _ in range(1000):
            n = rng.choice([2, 3])
            theta = sorted(rng.uniform(0, math.pi) for _ in range(n))
            perm = list(theta)
            rng.shuffle(perm)
            v_sorted = measures._vandermonde_sines(tuple(theta))
            v_perm = measures._vandermonde_sines(tuple(perm))
            assert abs(v_sorted * v_sorted - v_perm * v_perm) < 1e-12 * max(
                1.0, abs(v_sorted)
            )


class TestQuadrature:
    """The closed-form constants and the scalar densities against the
    numpy quadrature oracle."""

    def test_mu_masses(self):
        for n in (1, 2, 3, 4):
            c = measures.constant_c(n)
            mass = integrate_simplex(n, lambda t, c=c: c * vandermonde_sines(t) ** 2)
            assert abs(mass - 1.0) < 1e-6

    def test_nu_effective_constants(self):
        assert abs(measures.constant_d_effective(1) - 0.5) < 1e-9
        assert abs(measures.constant_d_effective(2) - 0.75) < 1e-9
        exact = [measures.constant_d_effective(n) for n in (1, 2, 3, 4)]
        assert exact == [Fraction(1, 2), Fraction(3, 4), Fraction(45, 16), Fraction(1575, 64)]

    def test_effective_constant_inverts_raw_mass(self):
        for n in (1, 2, 3, 4):
            raw = integrate_simplex(n, vandermonde_sines)
            assert abs(float(measures.constant_d_effective(n)) * raw - 1.0) < 1e-12

    def test_nominal_constant_is_off_by_exact_factor(self):
        for n in (1, 2, 3, 4):
            gap = 2 ** (n * (n + 1) // 2) * math.pi**n
            ratio = float(measures.constant_d_effective(n)) / measures.constant_d_nominal(n)
            assert abs(ratio / gap - 1.0) < 1e-14

    def test_nu_effective_masses(self):
        for n in (1, 2, 3):
            d = float(measures.constant_d_effective(n))
            mass = integrate_simplex(n, lambda t, d=d: d * vandermonde_sines(t))
            assert abs(mass - 1.0) < 1e-6

    def test_nu1_nominal_mass_documents_normalization_gap(self):
        d = measures.constant_d_nominal(1)
        mass = integrate_simplex(1, lambda t: d * vandermonde_sines(t))
        assert abs(mass - 1 / (2 * math.pi)) < 1e-7

    def test_dimension_four(self):
        d = float(measures.constant_d_effective(4))
        mass = integrate_simplex(4, lambda t: d * vandermonde_sines(t), tol=1e-7)
        assert abs(mass - 1.0) < 1e-6

    def test_dimension_cap(self):
        with pytest.raises(DomainError):
            integrate_simplex(5, lambda t: t)

    def test_scalar_densities_match_oracle_integrand(self):
        rng = random.Random(19)
        for _ in range(400):
            n = rng.randint(1, 4)
            theta = tuple(sorted(rng.uniform(0, math.pi) for _ in range(n)))
            base = float(vandermonde_sines(np.array(theta)))
            pairs = [
                (measures.density_mu(n, theta), measures.constant_c(n) * base * base),
                (measures.density_nu(n, theta), measures.constant_d_nominal(n) * base),
                (
                    measures.density_nu(n, theta, "effective"),
                    float(measures.constant_d_effective(n)) * base,
                ),
            ]
            for got, want in pairs:
                assert abs(got - want) <= 1e-12 * abs(want) + 1e-300


class TestEstimates:
    def test_average_elliptic_plugin(self):
        for p in (7, 101, 10007):
            got = measures.average_ppav_estimate(1, p, [math.pi / 2])
            want = (4 / math.pi**2) * (p / (p - 1)) * math.sqrt(p)
            assert abs(got - want) < 1e-12 * want

    def test_average_scaling_law(self):
        theta = [0.7, 1.9]
        base = measures.average_ppav_estimate(2, 101, theta)
        # prime powers of the same prime keep q/phi(q) fixed
        scaled = measures.average_ppav_estimate(2, 101**2, theta)
        assert abs(scaled / base - (101.0) ** (2 * 3 / 4)) < 1e-9 * scaled / base

    def test_average_vanishes_on_diagonal(self):
        assert measures.average_ppav_estimate(2, 101, [0.5, 0.5]) == 0.0

    def test_count_estimate_elliptic(self):
        got = measures.isogeny_class_count_estimate(1, 11)
        assert abs(got - 4 * (1 - 1 / 11) * math.sqrt(11)) < 1e-12

    def test_count_estimate_large_prime(self):
        assert abs(measures.isogeny_class_count_estimate(1, 10007) - 400.1) < 0.05

    def test_count_scaling(self):
        r = measures.isogeny_class_count_estimate(1, 101**2) / measures.isogeny_class_count_estimate(1, 101)
        # phi correction: (1 - 1/101) cancels between q and q^2 over the same prime
        assert abs(r - 101.0 ** 0.5 * (1 - 1 / 101) / (1 - 1 / 101)) < 1e-9

    def test_rejects_non_prime_power(self):
        with pytest.raises(DomainError):
            measures.isogeny_class_count_estimate(1, 12)


class TestCompositionConsistency:
    def test_average_is_density_quotient_up_to_pi_power(self):
        """The three displayed asymptotics compose to the per-class average
        exactly up to a factor pi^(2n), which is recorded, not repaired."""
        for n, theta in ((1, [0.9]), (2, [0.7, 1.9])):
            q = 101
            mu = measures.density_mu(n, tuple(theta))
            nu = measures.density_nu(n, tuple(theta), "nominal")
            total_ppav = 2 * float(q) ** (n * (n + 1) / 2) * mu
            total_iso = measures.isogeny_class_count_estimate(n, q) * nu
            composed = total_ppav / total_iso
            average = measures.average_ppav_estimate(n, q, theta)
            assert abs(composed / average - math.pi ** (2 * n)) < 1e-9


class TestCsv:
    def test_density_table_columns(self):
        rows = list(measures.density_table(2, 5))
        assert len(rows) == 15  # multisets of size 2 from 5 grid points
        assert all(len(row) == 5 for row in rows)

    def test_grid_is_made_lazily(self):
        # C(63, 4) = 595,665 tuples in all; the first one alone is small
        tracemalloc.start()
        try:
            first = next(iter(measures.simplex_grid(4, 60)))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert first == (0.0, 0.0, 0.0, 0.0)
        assert peak < 1 << 20

    def test_grid_axis_is_linspace_bit_for_bit(self):
        for points in range(0, 130):
            axis = [theta for (theta,) in measures.simplex_grid(1, points)]
            assert axis == np.linspace(0.0, math.pi, points).tolist()

    def test_row_cap(self):
        measures.check_grid(4, 64)  # the CLI default, 766,480 rows
        measures.check_grid(1, measures.MAX_GRID_ROWS)
        for n, points in ((1, measures.MAX_GRID_ROWS + 1), (4, 130), (2, 4472)):
            assert math.comb(points + n - 1, n) > measures.MAX_GRID_ROWS
            with pytest.raises(DomainError, match="above the cap"):
                measures.simplex_grid(n, points)

    def test_bad_grid_writes_nothing(self):
        handle = io.StringIO()
        with pytest.raises(DomainError):
            measures.write_density_csv(2, -1, handle)
        assert handle.getvalue() == ""

    def test_writer(self):
        handle = io.StringIO()
        measures.write_density_csv(1, 3, handle)
        lines = handle.getvalue().strip().splitlines()
        assert lines[0] == "theta_1,mu,nu_nominal,nu_effective"
        assert len(lines) == 4
