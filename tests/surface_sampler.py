"""Random surface isogeny classes for the tests.

The package takes its classes from the user and draws none itself; the
tests and oracles draw them here, by rejection over the Weil region with
the exact sign test `weil._sign_plus_root` in Z[sqrt(q)].
"""

from math import isqrt

from ppav import arith, weil


def random_surface_spec(rng, qmax=10_000, require_ordinary=True, require_simple=True):
    """Random valid n=2 isogeny class over F_q, q prime, by rejection.

    Samples integer (a, b) uniformly over the region where the companion
    g = x^2 + a x + (b - 2q) has two distinct real roots strictly inside
    (-2 sqrt(q), 2 sqrt(q)).
    """
    while True:
        q = rng.randrange(3, qmax + 1)
        if not arith.is_prime(q):
            continue
        s = isqrt(4 * q)
        a = rng.randrange(-2 * s - 1, 2 * s + 2)
        c = rng.randrange(-6 * q, 6 * q + 1)
        if a * a - 4 * c <= 0:
            continue
        if a * a >= 16 * q:
            continue
        if weil._sign_plus_root(4 * q + c, 2 * a, q) <= 0:
            continue
        if weil._sign_plus_root(4 * q + c, -2 * a, q) <= 0:
            continue
        b = c + 2 * q
        spec = weil.isogeny_class((q * q, a * q, b, a, 1), q)
        if (require_ordinary and not spec.ordinary) or (require_simple and not spec.simple):
            continue
        return spec


def simple_ordinary_surfaces(q):
    """Every simple ordinary surface class x^4 + a x^3 + b x^2 + a q x + q^2 over F_q.

    The box reaches one step past |a| <= 4 sqrt(q) and -2q <= b <= 6q, which
    holds the whole Weil region.
    """
    s = isqrt(16 * q)
    for a in range(-s - 1, s + 2):
        for b in range(-2 * q - 1, 6 * q + 2):
            if weil._quadratic_in_weil_region(b - 2 * q, a, q):
                spec = weil.isogeny_class((q * q, a * q, b, a, 1), q)
                if spec.ordinary and spec.simple:
                    yield spec
