"""Reference oracles for real quadratic fields.

`strata` decides its surface certificates from one integer valuation pass;
the tests check that pass against this full factorization of the ideal
(x) in the maximal order of Q(sqrt(d)), prime by prime.  The norm of a
fundamental unit is checked against a direct search of x^2 - d y^2 = +-4.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

from ppav import arith, quadratic
from ppav.errors import DomainError, InternalError


@dataclass(frozen=True)
class RealQuadElement:
    """a + b sqrt(d) with rational a, b and a squarefree radicand d > 1."""

    a: Fraction
    b: Fraction
    d: int

    def norm(self):
        return self.a * self.a - self.b * self.b * self.d


def field_discriminant(d):
    """Discriminant of the maximal order of Q(sqrt(d)), d squarefree."""
    return d if d % 4 == 1 else 4 * d


def factor_element_ideal(d, x):
    """Factor the principal ideal (x) in the maximal order of Q(sqrt(d)).

    Returns [((ell, type), valuation)] with type in {"split+", "split-",
    "inert", "ramified"}; the two primes over a split ell are told apart by
    a fixed choice of sqrt(d) modulo a prime power.
    """
    if not isinstance(x, RealQuadElement) or x.d != d:
        raise DomainError("element lives in a different field")
    if x.a == 0 and x.b == 0:
        raise DomainError("cannot factor the zero ideal")
    norm = x.norm()
    if norm.denominator != 1 or (2 * x.a).denominator != 1:
        raise DomainError("element is not integral")
    disc = field_discriminant(d)
    n = abs(int(norm))
    out = []
    if n == 1:
        return out
    for ell, e in sorted(arith.factorize(n).items()):
        symbol = arith.kronecker_symbol(disc, ell)
        if symbol == -1:
            if e % 2 != 0:
                raise InternalError("odd valuation at an inert prime")
            out.append(((ell, "inert"), e // 2))
        elif symbol == 0:
            out.append(((ell, "ramified"), e))
        else:
            v_plus = _split_valuation(x, ell, e)
            if v_plus:
                out.append(((ell, "split+"), v_plus))
            if e - v_plus:
                out.append(((ell, "split-"), e - v_plus))
    return out


def _split_valuation(x, ell, e):
    """Valuation of x at the split prime over ell fixed by a chosen root of
    x.d modulo ell^(e+2)."""
    # write x = (A + B sqrt(d))/2 with integers A, B
    A = int(x.a * 2)
    B = int(x.b * 2)
    if ell == 2:
        k = e + 3
        r = quadratic._sqrt_mod_2k(x.d % (1 << (k + 1)), k)
        mod = 1 << k
        shift = 1  # the /2 costs one 2-adic valuation unit
    else:
        k = e + 1
        r = quadratic._hensel_sqrt(x.d, ell, k)
        mod = ell**k
        shift = 0
    if r is None:
        raise InternalError("split prime without a square root")
    t = (A + B * r) % mod
    v = 0
    while v < e + shift and t % ell == 0:
        t //= ell
        v += 1
    return min(e, max(0, v - shift))


def brute_force_unit_norm(d, ymax):
    """Norm of the unit (x + y sqrt(d))/2 of the order of discriminant d with
    the least y >= 1, from x^2 - d y^2 = -4 or +4; None when no y < ymax
    solves either."""
    for y in range(1, ymax):
        for norm in (-1, 1):  # at equal y the unit of norm -1 is the smaller
            m = d * y * y + 4 * norm
            if isqrt(m) ** 2 == m:
                return norm
    return None
