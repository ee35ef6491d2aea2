"""Acceptance suite: the nine exit criteria, one test each.

Each test prints a single PASS/FAIL line with its timing (run pytest with
-s to see them alongside the verdicts).  Tolerances and budgets are pinned
here, not configurable.
"""

import math
import random
import statistics
import time
from fractions import Fraction

import numpy as np

from lattice_oracle import INCONVENIENT_ORDER
from ppav import census, measures, orders, quadratic, strata
from quadrature_oracle import integrate_simplex, vandermonde_sines
from surface_sampler import random_surface_spec


class criterion:
    """Times a criterion body and prints exactly one PASS/FAIL line."""

    def __init__(self, number, budget):
        self.number = number
        self.budget = budget
        self.detail = ""

    def __enter__(self):
        self.start = time.time()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.time() - self.start
        verdict = "PASS" if exc_type is None and elapsed < self.budget else "FAIL"
        message = self.detail if exc_type is None else exc
        print(
            f"ACCEPTANCE {self.number}: {verdict} in {elapsed:.2f}s "
            f"(budget {self.budget}s) - {message}",
            flush=True,
        )
        if exc_type is None and elapsed >= self.budget:
            raise AssertionError(f"criterion {self.number} exceeded its {self.budget}s budget")
        return False


def test_criterion_1_inconvenient_order_golden():
    with criterion(1, 1) as c:
        ctx, lattice = orders.load_order_file(INCONVENIENT_ORDER)
        assert list(ctx.poly) == [361, -76, 10, -4, 1] and ctx.q == 19
        cert = orders.convenient_certificate(lattice)
        assert cert.stable_under_conjugation is True
        real = orders.real_subring(lattice)
        assert orders.lattice_discriminant(real) == 32  # Z[2 sqrt 2]
        assert cert.real_subring_gorenstein is True
        assert cert.pure_imaginary_index == 2
        assert cert.is_convenient is False
        assert orders.is_gorenstein(lattice) is True
        c.detail = "stable, real subring Z[2sqrt2] Gorenstein, index 2, not convenient"


def test_criterion_2_minimal_orders_convenient():
    with criterion(2, 60) as c:
        rng = random.Random(0xC2)
        failures = 0
        for _ in range(500):
            spec = random_surface_spec(rng, qmax=10_000)
            ctx = orders.FieldContext(list(spec.f), spec.q)
            cert = orders.convenient_certificate(orders.minimal_order(ctx))
            if not cert.is_convenient:
                failures += 1
        assert failures == 0
        c.detail = "500/500 random simple ordinary surface classes convenient"


def test_criterion_3_disc_ratio_cross_check():
    with criterion(3, 120) as c:
        rng = random.Random(0xC3)
        worst = 0.0
        for _ in range(1000):
            spec = random_surface_spec(rng, qmax=1_000_000)
            exact = strata.disc_ratio_exact(spec)
            trig = strata.disc_ratio_trig(spec)
            worst = max(worst, abs(trig / exact - 1))
            assert 1 - 1e-9 <= trig / exact <= 1 + 1e-9
            ctx = orders.FieldContext(list(spec.f), spec.q)
            minimal = orders.minimal_order(ctx)
            real = orders.real_subring(minimal)
            quotient = abs(
                orders.lattice_discriminant(minimal) / orders.lattice_discriminant(real)
            )
            assert quotient == Fraction(exact)
        c.detail = f"1000 specs, worst trig/exact deviation {worst:.2e}"


def test_criterion_4_family_sweeps():
    with criterion(4, 120) as c:
        primes = strata.family_primes(10_000)
        for p in primes:
            for kind in ("small", "smaller", "smallest"):
                _, report = strata.example_family(kind, p)  # raises on any violation
                if kind in ("small", "smaller") or p > 144:
                    assert report.bound_checked
        c.detail = f"{len(primes)} primes = 7 mod 8 below 10^4, all three families, zero violations"


def test_criterion_5_heavy_class_golden():
    with criterion(5, 1) as c:
        witness = strata.find_heavy_isogeny_class(2, -7)
        assert witness.p == 29
        assert witness.t == 2
        assert witness.delta == -112
        assert witness.conductor == 4
        assert witness.ratio == Fraction(1, 2)
        assert witness.bound == Fraction(3, 4)
        assert witness.ratio <= witness.bound
        assert quadratic.kronecker_class_number(-112) == 4
        assert quadratic.class_number_imaginary(-112) == 2
        c.detail = "p=29, t=2, delta=-112, F=4, h/H = 1/2 <= 3/4, H=4, h=2"


def primitive_form_count(delta):
    """h(delta) by listing the reduced forms (a, b, c), |b| <= a <= c, of
    discriminant delta < 0 on one grid of all (a, b) and keeping the
    primitive ones; independent of the library's counting.
    """
    amax = math.isqrt(-delta // 3)
    sizes = 2 * np.arange(1, amax + 1)  # b in (-a, a]
    a = np.repeat(np.arange(1, amax + 1), sizes)
    b = np.arange(a.size) - np.repeat(np.cumsum(sizes) - sizes, sizes) - a + 1
    num = b * b - delta
    keep = num % (4 * a) == 0
    a, b, c = a[keep], b[keep], num[keep] // (4 * a[keep])
    reduced = (c > a) | ((c == a) & (b >= 0))
    return int(np.count_nonzero(reduced & (np.gcd(np.gcd(a, b), c) == 1)))


def test_criterion_6_class_number_formula_equivalence():
    with criterion(6, 60) as c:
        rng = random.Random(0xC6)
        done = 0
        while done < 500:
            d0 = -rng.randrange(5, 500)
            if d0 % 4 not in (0, 1) or d0 >= -4 or not quadratic.is_fundamental(d0):
                continue
            f = rng.randrange(1, 51)
            h = primitive_form_count(d0 * f * f)
            assert h == quadratic.class_number_by_formula(d0, f)
            assert h == quadratic.class_number_imaginary(d0 * f * f)
            done += 1
        c.detail = "500 random (delta0 < -4, f <= 50) pairs: form count = formula exactly"


def test_criterion_7_elliptic_census():
    with criterion(7, 600) as c:
        tvs = {}
        for p in (101, 1009, 10007):
            rows = census.enumerate_ec(p)
            summary = census.summarize(rows, bins=40)
            ratio = summary.class_count / summary.predicted_class_count
            assert 0.95 <= ratio <= 1.05
            tvs[p] = summary.tv_to_semicircle
        assert tvs[1009] <= tvs[101] + 0.01
        assert tvs[10007] <= tvs[1009] + 0.01
        assert tvs[10007] < 0.10
        c.detail = (
            "TV " + ", ".join(f"p={p}: {tvs[p]:.4f}" for p in sorted(tvs)) + "; counts within 5%"
        )


def test_criterion_8_measure_normalization():
    with criterion(8, 60) as c:
        for n in (1, 2, 3):
            cn = measures.constant_c(n)
            mass = integrate_simplex(n, lambda t, cn=cn: cn * vandermonde_sines(t) ** 2)
            assert abs(mass - 1.0) <= 1e-6
        assert abs(measures.constant_d_effective(1) - 0.5) <= 1e-9
        assert abs(measures.constant_d_effective(2) - 0.75) <= 1e-9
        d1 = measures.constant_d_nominal(1)
        nu1_nominal = integrate_simplex(1, lambda t: d1 * vandermonde_sines(t))
        assert abs(nu1_nominal - 1 / (2 * math.pi)) <= 1e-7
        c.detail = "mu_1..3 masses = 1, effective constants 1/2 and 3/4, nu_1 nominal mass = 1/(2pi)"


def test_criterion_9_estimator_trend():
    with criterion(9, 300) as c:
        rng = random.Random(0xC9)
        ratios = []
        while len(ratios) < 200:
            u = rng.uniform(math.log(1e4), math.log(1e8))
            x = int(math.exp(u))
            while not quadratic.is_fundamental(-x):
                x += 1
            h = quadratic.class_number_imaginary(-x)
            ratios.append(math.log(h) / math.log(math.sqrt(x)))
        median = statistics.median(ratios)
        assert 0.75 <= median <= 1.1
        c.detail = f"median log h / log sqrt|delta| = {median:.4f} over 200 samples"
