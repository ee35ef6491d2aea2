"""Limiting angle distributions on the ordered simplex S_n.

Two densities live here: the random-matrix density mu_n (squared
Vandermonde in cosines times squared sines) that governs principally
polarized varieties, and the isogeny-class density nu_n (the same products
unsquared).  The printed normalization constant d_n = 1/(v_n pi^n) for
nu_n does not integrate to one; the numerically normalized constant is
computed and exposed next to it, and both are reported without blending.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement

import numpy as np

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


def _check_tuple(n, theta):
    theta = np.asarray(theta, dtype=float)
    if theta.shape[-1] != n:
        raise DomainError(f"expected {n} angles")
    if np.any(theta < 0) or np.any(theta > math.pi):
        raise DomainError("angles must lie in [0, pi]")
    if np.any(np.diff(theta, axis=-1) < 0):
        raise DomainError("angles must be sorted ascending")
    return theta


def _vandermonde_sines(theta):
    n = theta.shape[-1]
    value = np.ones(theta.shape[:-1])
    cos = np.cos(theta)
    for i in range(n):
        for j in range(i + 1, n):
            value = value * (cos[..., i] - cos[..., j])
        value = value * np.sin(theta[..., i])
    return value


def density_mu(n, theta):
    """Random-matrix angle density: c_n prod (cos-cos)^2 prod sin^2."""
    theta = _check_tuple(n, theta)
    base = _vandermonde_sines(theta)
    out = constant_c(n) * base * base
    return float(out) if out.ndim == 0 else out


def density_nu(n, theta, constant="nominal"):
    """Isogeny-class angle density: d prod (cos-cos) prod sin.

    constant="nominal" uses 1/(v_n pi^n); constant="effective" uses the
    numerically normalized value making the mass one.
    """
    theta = _check_tuple(n, theta)
    if constant == "nominal":
        d = constant_d_nominal(n)
    elif constant == "effective":
        d = constant_d_effective(n)
    else:
        raise DomainError("constant must be 'nominal' or 'effective'")
    out = d * _vandermonde_sines(theta)
    return float(out) if out.ndim == 0 else out


def integrate_simplex(n, density, start_points=None, tol=1e-8, max_doublings=4):
    """Deterministic Gauss-Legendre integral of density over the ordered simplex.

    Uses the substitution theta_k = theta_{k+1} u_k onto [0,pi] x [0,1]^(n-1),
    doubling the per-axis node count until two refinements agree within tol.
    The density callable must accept a numpy array of shape (..., n).
    """
    if n < 1 or n > 4:
        raise DomainError("simplex quadrature supports 1 <= n <= 4")
    if start_points is None:
        # keep the tensor grid small in high dimension; the integrands are
        # analytic, so Gauss-Legendre converges long before these counts
        start_points = {1: 64, 2: 64, 3: 48, 4: 20}[n]

    def once(points):
        x, w = np.polynomial.legendre.leggauss(points)
        t_outer = math.pi / 2 * (x + 1)
        w_outer = math.pi / 2 * w
        u = (x + 1) / 2
        wu = w / 2
        axes_nodes = [t_outer] + [u] * (n - 1)
        axes_weights = [w_outer] + [wu] * (n - 1)
        grids = np.meshgrid(*axes_nodes, indexing="ij")
        weight = np.ones(grids[0].shape)
        for gw, grid_axis in zip(axes_weights, range(n)):
            shape = [1] * n
            shape[grid_axis] = points
            weight = weight * gw.reshape(shape)
        # thetas, outermost first: theta_n = t, theta_{n-1} = t u_1, ...
        thetas = [grids[0]]
        for k in range(1, n):
            thetas.append(thetas[-1] * grids[k])
            weight = weight * thetas[k - 1]  # Jacobian d theta_k = theta_{k+1} du
        stacked = np.stack(list(reversed(thetas)), axis=-1)  # ascending order
        values = density(stacked)
        return float(np.sum(values * weight))

    points = start_points
    prev = once(points)
    for _ in range(max_doublings):
        points *= 2
        cur = once(points)
        if abs(cur - prev) < tol:
            return cur
        prev = cur
    return prev


def constant_d_effective(n, _cache={}):
    """Normalizing constant for nu_n, certified numerically."""
    if n not in _cache:
        raw = integrate_simplex(n, lambda t: _vandermonde_sines(t))
        _cache[n] = 1.0 / raw
    return _cache[n]


@dataclass(frozen=True)
class MeasureSpec:
    n: int
    v_n: Fraction
    c_n: float
    d_n_nominal: float
    d_n_eff: float


def measure_spec(n):
    return MeasureSpec(
        n=n,
        v_n=constant_v(n),
        c_n=constant_c(n),
        d_n_nominal=constant_d_nominal(n),
        d_n_eff=constant_d_effective(n),
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
    out = lead * _vandermonde_sines(theta)
    return float(out) if out.ndim == 0 else out


def isogeny_class_count_estimate(n, q):
    """Asymptotic count of n-dimensional isogeny classes over F_q:
    v_n (phi(q)/q) q^(n(n+1)/4)."""
    phi = euler_phi_prime_power(q)
    return float(constant_v(n)) * (phi / q) * float(q) ** (n * (n + 1) / 4)


def check_grid(points):
    if points < 0:
        raise DomainError(f"grid needs a nonnegative number of points, got {points}")


def simplex_grid(n, points):
    """Ascending n-tuples from a regular grid on [0, pi], made one at a time.

    `points` is checked here, before the first tuple is asked for.
    """
    check_grid(points)
    axis = np.linspace(0.0, math.pi, points)
    return (tuple(axis[i] for i in idx) for idx in combinations_with_replacement(range(points), n))


def density_table(n, points):
    """Rows (theta_1..theta_n, mu, nu_nominal, nu_effective) on a regular
    grid, made one at a time."""
    return (_density_row(n, theta) for theta in simplex_grid(n, points))


def _density_row(n, theta):
    arr = np.asarray(theta)
    return theta + (
        float(density_mu(n, arr)),
        float(density_nu(n, arr, "nominal")),
        float(density_nu(n, arr, "effective")),
    )


def write_density_csv(n, points, handle):
    rows = density_table(n, points)  # a bad grid fails before the header
    writer = csv.writer(handle)
    writer.writerow([f"theta_{i+1}" for i in range(n)] + ["mu", "nu_nominal", "nu_effective"])
    for row in rows:
        writer.writerow([format(x, ".17g") for x in row])
