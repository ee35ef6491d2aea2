"""Reference oracle for the angle measures: quadrature over the ordered simplex.

`ppav.measures` states its normalizing constants in closed form and
evaluates its densities one angle tuple at a time with `math`.  The tests
check both against a deterministic Gauss-Legendre integral, computed here
with numpy on whole grids of angle tuples.
"""

import math

import numpy as np

from ppav.errors import DomainError


def vandermonde_sines(theta):
    """prod_{i<j} (cos theta_i - cos theta_j) * prod sin theta_i over the
    last axis of an array of shape (..., n)."""
    n = theta.shape[-1]
    cos = np.cos(theta)
    value = np.prod(np.sin(theta), axis=-1)
    for i in range(n):
        for j in range(i + 1, n):
            value = value * (cos[..., i] - cos[..., j])
    return value


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
        # one slice of the grid per outer node theta_n = t, so memory holds
        # points^(n-1) tuples at a time, not points^n
        x, w = np.polynomial.legendre.leggauss(points)
        u, uw = (x + 1) / 2, w / 2
        inner = np.meshgrid(*[u] * (n - 1), indexing="ij")
        inner_weight = np.ones((points,) * (n - 1))
        for axis in range(n - 1):
            shape = [1] * (n - 1)
            shape[axis] = points
            inner_weight = inner_weight * uw.reshape(shape)
        total = 0.0
        for t, tw in zip(math.pi / 2 * (x + 1), math.pi / 2 * w):
            # thetas, outermost first: theta_n = t, theta_{n-1} = t u_1, ...
            thetas = [np.full(inner_weight.shape, t)]
            weight = tw * inner_weight
            for k in range(1, n):
                thetas.append(thetas[-1] * inner[k - 1])
                weight = weight * thetas[k - 1]  # Jacobian d theta_k = theta_{k+1} du
            stacked = np.stack(list(reversed(thetas)), axis=-1)  # ascending order
            total += float(np.sum(density(stacked) * weight))
        return total

    points = start_points
    prev = once(points)
    for _ in range(max_doublings):
        points *= 2
        cur = once(points)
        if abs(cur - prev) < tol:
            return cur
        prev = cur
    return prev
