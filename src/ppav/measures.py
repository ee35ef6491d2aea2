"""Limiting angle distributions on the ordered simplex S_n.

Two densities live here: the random-matrix density mu_n (squared
Vandermonde in cosines times squared sines) that governs principally
polarized varieties, and the isogeny-class density nu_n (the same products
unsquared).  The printed normalization constant d_n = 1/(v_n pi^n) for
nu_n does not integrate to one.  The constant that does is exact: v_n is
the volume of the monic real degree-n polynomials with all roots in
[-2, 2], the Jacobian from roots to coefficients is |Delta|, and x = 2 cos
theta, so the effective constant is 2^(n(n+1)/2) / v_n.  Both constants
are reported side by side without blending; they differ by exactly
2^(n(n+1)/2) pi^n.

The densities take one ascending tuple of n angles and use `math` only.
"""

import csv
import math
from collections import namedtuple
from fractions import Fraction
from itertools import combinations_with_replacement

from . import arith
from .errors import DomainError


def constant_v(n):
    """Exact rational 2^n/n! * prod_{j=1..n} (2j/(2j-1))^(n+1-j)."""
    if n < 1:
        raise DomainError("dimension must be positive")
    v = Fraction(2**n, math.factorial(n))
    for j in range(1, n + 1):
        v *= Fraction(2 * j, 2 * j - 1) ** (n + 1 - j)
    return v


def constant_c(n):
    """2^(n^2) / pi^n, normalizing the random-matrix density."""
    return 2.0 ** (n * n) / math.pi**n


def constant_d_nominal(n):
    """1 / (v_n pi^n), the printed isogeny-class density constant."""
    return 1.0 / (float(constant_v(n)) * math.pi**n)


def constant_d_effective(n):
    """Exact normalizing constant 2^(n(n+1)/2) / v_n of nu_n."""
    return 2 ** (n * (n + 1) // 2) / constant_v(n)


def _check_tuple(n, theta):
    theta = tuple(map(float, theta))
    if len(theta) != n:
        raise DomainError(f"expected {n} angles")
    if any(t < 0 or t > math.pi for t in theta):
        raise DomainError("angles must lie in [0, pi]")
    if any(a > b for a, b in zip(theta, theta[1:])):
        raise DomainError("angles must be sorted ascending")
    return theta


def _vandermonde_sines(theta):
    """prod_{i<j} (cos theta_i - cos theta_j) * prod sin theta_i."""
    cos = [math.cos(t) for t in theta]
    value = 1.0
    for i, t in enumerate(theta):
        for c in cos[i + 1 :]:
            value *= cos[i] - c
        value *= math.sin(t)
    return value


def density_mu(n, theta):
    """Random-matrix angle density: c_n prod (cos-cos)^2 prod sin^2."""
    base = _vandermonde_sines(_check_tuple(n, theta))
    return constant_c(n) * base * base


def density_nu(n, theta, constant="nominal"):
    """Isogeny-class angle density: d prod (cos-cos) prod sin.

    constant="nominal" uses 1/(v_n pi^n); constant="effective" uses the
    exact 2^(n(n+1)/2) / v_n, which makes the mass one.
    """
    theta = _check_tuple(n, theta)
    if constant == "nominal":
        d = constant_d_nominal(n)
    elif constant == "effective":
        d = float(constant_d_effective(n))
    else:
        raise DomainError("constant must be 'nominal' or 'effective'")
    return d * _vandermonde_sines(theta)


class MeasureSpec(namedtuple("MeasureSpec", "n v_n c_n d_n_nominal d_n_eff")):
    """v_n is the exact Fraction of `constant_v`; the other constants are floats."""

    __slots__ = ()


# the dimensions `measures` tabulates: the grid has C(points + n - 1, n)
# tuples, and c_n = 2^(n^2) / pi^n leaves the float range at n = 32
MAX_DIMENSION = 4


def measure_spec(n):
    if not 1 <= n <= MAX_DIMENSION:
        raise DomainError(f"measures supports 1 <= n <= {MAX_DIMENSION}, got {n}")
    return MeasureSpec(
        n=n,
        v_n=constant_v(n),
        c_n=constant_c(n),
        d_n_nominal=constant_d_nominal(n),
        d_n_eff=float(constant_d_effective(n)),
    )


def euler_phi_prime_power(q):
    pk = arith.is_prime_power(q)
    if pk is None:
        raise DomainError(f"q = {q} is not a prime power")
    p, _ = pk
    return q - q // p


def average_ppav_estimate(n, q, theta):
    """Heuristic count of principally polarized varieties per isogeny class
    near the given angles: (2^(n^2+1)/pi^(2n)) (q/phi(q)) q^(n(n+1)/4)
    prod (cos-cos) prod sin."""
    theta = _check_tuple(n, theta)
    phi = euler_phi_prime_power(q)
    lead = 2.0 ** (n * n + 1) / math.pi ** (2 * n) * (q / phi) * float(q) ** (n * (n + 1) / 4)
    return lead * _vandermonde_sines(theta)


def isogeny_class_count_estimate(n, q):
    """Asymptotic count of n-dimensional isogeny classes over F_q:
    v_n (phi(q)/q) q^(n(n+1)/4)."""
    phi = euler_phi_prime_power(q)
    return float(constant_v(n)) * (phi / q) * float(q) ** (n * (n + 1) / 4)


# a table of n angles on `points` grid points has C(points + n - 1, n) rows,
# written at about 10 us a row: 10^7 rows is about 100 s, and the default
# n = 4 on 64 points is 766,480
MAX_GRID_ROWS = 10**7


def check_grid(n, points):
    if points < 0:
        raise DomainError(f"grid needs a nonnegative number of points, got {points}")
    rows = math.comb(points + n - 1, n) if points else 0
    if rows > MAX_GRID_ROWS:
        raise DomainError(
            f"grid of {points} points has {rows} rows at n = {n}, above the cap {MAX_GRID_ROWS}"
        )


def simplex_grid(n, points):
    """Ascending n-tuples from a regular grid on [0, pi], made one at a time.

    The axis is i * pi/(points - 1) with its last entry exactly pi, as
    `numpy.linspace(0, pi, points)` gives it.  `points` and the row count
    are checked here, before the first tuple is asked for.
    """
    check_grid(n, points)
    step = math.pi / (points - 1) if points > 1 else 0.0
    axis = [i * step + 0.0 for i in range(points)]
    if points > 1:
        axis[-1] = math.pi
    return (tuple(axis[i] for i in idx) for idx in combinations_with_replacement(range(points), n))


def density_table(n, points):
    """Rows (theta_1..theta_n, mu, nu_nominal, nu_effective) on a regular
    grid, made one at a time."""
    grid = simplex_grid(n, points)
    c, nominal, effective = constant_c(n), constant_d_nominal(n), float(constant_d_effective(n))
    return (_density_row(theta, c, nominal, effective) for theta in grid)


def _density_row(theta, c, nominal, effective):
    base = _vandermonde_sines(theta)
    return theta + (c * base * base, nominal * base, effective * base)


def write_density_csv(n, points, handle):
    rows = density_table(n, points)  # a bad grid fails before the header
    writer = csv.writer(handle)
    writer.writerow([f"theta_{i+1}" for i in range(n)] + ["mu", "nu_nominal", "nu_effective"])
    for row in rows:
        writer.writerow([format(x, ".17g") for x in row])
