"""Exact integer, rational, polynomial, and matrix kernels.

Conventions used throughout the package:

* integer polynomials are lists/tuples of ``int`` coefficients in ascending
  degree, with a nonzero leading coefficient unless the polynomial is zero;
* arith builds no ``Fraction``: a rational value is a pair (den, integers)
  standing for integers / den, as a matrix (den, rows) or refined roots
  (den, [n_lo, n_hi]), and every determinant, rank and inverse comes from
  one fraction-free elimination, `echelon`;
* the Hermite normal form is row-style: upper echelon, positive pivots,
  and entries above each pivot reduced into ``[0, pivot)``.  Two generator
  sets span the same lattice iff their HNFs are identical.  `hnf_int`
  computes it by one column-wise extended-gcd elimination, clearing each
  entry below a pivot with a single unimodular 2x2 step.  It builds no
  transform: a kernel is read off the HNF of an augmented matrix.
"""

import random
from bisect import bisect_right
from itertools import compress
from math import gcd, isqrt

from .errors import DomainError, FactorError, RankError

# ---------------------------------------------------------------------------
# integer polynomials (ascending coefficients)


def poly_trim(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return c


def poly_add(a, b):
    n = max(len(a), len(b))
    return poly_trim([(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)])


def poly_sub(a, b):
    return poly_add(a, [-x for x in b])


def poly_scale(a, s):
    if s == 0:
        return []
    return [s * x for x in a]


def poly_eval(a, x):
    acc = 0 * x if a else 0
    for c in reversed(a):
        acc = acc * x + c
    return acc


def trace_form(a):
    """The Gram matrix [Tr(x^(i+j))] of Z[x]/(a) for monic a; its determinant is disc a.

    Tr(x^k) is the k-th power sum of the roots of a, integral by Newton's
    identities.
    """
    m = len(a) - 1
    sums = [m]
    for k in range(1, 2 * m - 1):
        s = -k * a[m - k] if k <= m else 0
        for i in range(1, min(k, m + 1)):
            s -= a[m - i] * sums[k - i]
        sums.append(s)
    return [sums[i : i + m] for i in range(m)]


# ---------------------------------------------------------------------------
# fraction-free (Bareiss) elimination: determinants, pivots, inverses


def echelon(rows):
    """Fraction-free row echelon form of an integer matrix (Cohen, GTM 138, 2.2).

    Returns (m, pivots, sign): m is upper echelon with its leading entries in
    the columns `pivots`, and sign is the parity of the row swaps.  After k
    pivots, every entry of the rows below them is a minor of order k + 1 of
    the row-swapped input, so every division is exact and the last pivot of
    a nonsingular square input is sign * det.
    """
    m = [list(row) for row in rows]
    nrows, ncols = len(m), len(m[0]) if m else 0
    pivots = []
    sign, prev, r = 1, 1, 0
    for c in range(ncols):
        for i in range(r, nrows):
            if m[i][c]:
                break
        else:
            continue
        if i != r:
            m[r], m[i] = m[i], m[r]
            sign = -sign
        top = m[r]
        p = top[c]
        trailing = range(c + 1, ncols)
        for row in m[r + 1 :]:
            x = row[c]
            if x:
                for j in trailing:
                    row[j] = (p * row[j] - x * top[j]) // prev
                row[c] = 0
            elif p != prev:
                for j in trailing:
                    row[j] = p * row[j] // prev
        prev = p
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m, pivots, sign


def det(rows):
    """Determinant of a square integer matrix."""
    m, pivots, sign = echelon(rows)
    return sign * m[-1][-1] if len(pivots) == len(m) else 0


def inverse(rows):
    """(d, X) with rows @ X == d * I and d = det(rows), for a nonsingular integer matrix.

    X is the adjugate.  Back-substitution through the echelon form of
    [rows | I] is exact, since the solution is integral.  Raises RankError
    when the matrix is singular.
    """
    n = len(rows)
    augmented = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(rows)]
    m, pivots, sign = echelon(augmented)
    if pivots[-1] >= n:
        raise RankError("singular matrix")
    d = sign * m[-1][n - 1]
    x = [None] * n
    for k in reversed(range(n)):
        row = m[k]
        x[k] = [
            (d * row[n + j] - sum(row[i] * x[i][j] for i in range(k + 1, n))) // row[k]
            for j in range(n)
        ]
    return d, x


# ---------------------------------------------------------------------------
# Kronecker symbol


def kronecker_symbol(a, n):
    """Kronecker symbol (a | n), the full extension of the Jacobi symbol."""
    if n == 0:
        return 1 if a in (1, -1) else 0
    result = 1
    if n < 0:
        n = -n
        if a < 0:
            result = -result
    t = 0
    while n % 2 == 0:
        n //= 2
        t += 1
    if t:
        if a % 2 == 0:
            return 0
        if t % 2 == 1 and a % 8 in (3, 5):
            result = -result
    a %= n
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    if n != 1:
        return 0
    return result


# ---------------------------------------------------------------------------
# primality and factorization

_SMALL_PRIMES: list[int] = []


# one sieve, s[i] = 1 iff i <= limit is prime, with three readers:
# `_prime_sieve`, `strata.family_primes` and
# `quadratic._fundamental_class_number`
def _sieve(limit):
    sieve = bytearray([1]) * (limit + 1)
    sieve[0:2] = b"\x00\x00"
    for p in range(2, isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(range(p * p, limit + 1, p)))
    return sieve


def _prime_sieve(limit):
    return list(compress(range(limit + 1), _sieve(limit)))


def small_primes():
    if not _SMALL_PRIMES:
        _SMALL_PRIMES.extend(_prime_sieve(10_000))
    return _SMALL_PRIMES


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_PSI = (
    2_047, 1_373_653, 25_326_001, 3_215_031_751, 2_152_302_898_747,
    3_474_749_660_383, 341_550_071_728_321, 341_550_071_728_321,
    3_825_123_056_546_413_051, 3_825_123_056_546_413_051,
    3_825_123_056_546_413_051, 318_665_857_834_031_151_167_461,
    3_317_044_064_679_887_385_961_981,
)


def is_prime(n):
    """Primality of n by Miller-Rabin on the first k `_MR_BASES`, k least
    with n < psi_k, the least strong pseudoprime to them (`_MR_PSI`:
    Jaeschke 1993, Sorenson-Webster 2017, OEIS A014233).

    DomainError for an n >= psi_13 that no base witnesses composite.
    """
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    k = bisect_right(_MR_PSI, n)
    for a in _MR_BASES[: k + 1]:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if k == len(_MR_PSI):
        raise DomainError("primality unproven above 3.3e24")
    return True


# steps times bits over all rho calls of one factorization: 16.8M steps at
# 96 bits, what the largest semiprime in the tests needs, and 2.3M (about
# 15 s) at 929 bits
RHO_BUDGET = 1 << 31


def _pollard_brent(n, rng, budget=RHO_BUDGET, spent=None):
    """Brent's rho: a factor 1 < d < n of the composite n, or None once
    spent[0] plus its steps * bits(n) would pass budget.  `spent`, a
    one-item list, carries that sum across the calls of one factorization."""
    if n % 2 == 0:
        return 2
    spent = [0] if spent is None else spent
    bits = n.bit_length()
    while True:
        y = rng.randrange(1, n)
        c = rng.randrange(1, n)
        m = 128
        g = r = q = 1
        x = ys = y
        while g == 1:
            cost = 2 * r * bits  # r steps to move x, at most r to search
            if spent[0] + cost > budget:
                return None
            spent[0] += cost
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g


def factorize(n, rho_budget=RHO_BUDGET):
    """Full prime factorization of n > 0 as a dict {prime: exponent}.

    Trial division by the sieved primes below 10^4.  Once a trial prime
    exceeds the square root of the cofactor, the cofactor is 1 or prime and
    is recorded without a primality test.  Only a cofactor that outlives
    the whole trial-division table goes on to Miller-Rabin certification
    and Pollard-Brent rho.
    The rho calls share rho_budget between them: each one either splits a
    composite or spends the rest of the budget, so there are at most
    Omega(n) - 1 of them.  Raises FactorError (with the partial
    factorization and the cofactor) if rho stalls past the budget, and
    DomainError if a cofactor above 3.3e24 may be prime (see `is_prime`).
    """
    if n <= 0:
        raise DomainError("factorize requires n > 0")
    out: dict[int, int] = {}
    for p in small_primes():
        if p * p > n:
            # no prime factor of n is at most its square root: 1 or prime
            if n > 1:
                out[n] = 1
            return out
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    # the cofactor outlived the table: certify it or split it
    rng = random.Random(0xFAC7)
    stack = [n]
    spent = [0]
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        d = _pollard_brent(m, rng, rho_budget, spent)
        if d is None:
            raise FactorError(
                f"factorization stalled at a {m.bit_length()}-bit cofactor", partial=out, cofactor=m
            )
        stack.append(d)
        stack.append(m // d)
    return out


def divisors(n):
    """Ascending divisors of n > 0."""
    divs = [1]
    for p, e in factorize(n).items():
        base = divs[:]
        pk = 1
        for _ in range(e):
            pk *= p
            divs += [d * pk for d in base]
    divs.sort()
    return divs


def squarefree_decompose(n):
    """n > 0 as s * f^2 with s squarefree; returns (s, f)."""
    s, f = 1, 1
    for p, e in factorize(n).items():
        if e % 2:
            s *= p
        f *= p ** (e // 2)
    return s, f


def _iroot(n, k):
    """The integer k-th root floor(n^(1/k)) of n >= 1, by integer Newton steps."""
    x = 1 << -(-n.bit_length() // k)  # at least the root
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def is_prime_power(q):
    """Returns (p, k) with q = p^k for prime p, or None.

    Needs no factoring.  Trial division by the primes below 10^4 decides
    any q that one of them divides (q must be a power of it) and any q
    with no prime factor up to its square root (q is prime).  Every other
    q has all its prime factors above 10^4 > 2^13, so q = r^k needs
    13 k < bits(q), and the largest such k with an exact integer k-th root
    r decides: q is a prime power iff that r is prime.
    """
    if q < 2:
        return None
    for p in small_primes():
        if p * p > q:
            return q, 1
        if q % p == 0:
            k = 0
            while q % p == 0:
                q //= p
                k += 1
            return (p, k) if q == 1 else None
    for k in range(q.bit_length() // 13, 1, -1):
        r = _iroot(q, k)
        if r**k == q:
            return (r, k) if is_prime(r) else None
    return (q, 1) if is_prime(q) else None


# ---------------------------------------------------------------------------
# real roots of quadratics


def quadratic_real_roots(a, bits=80):
    """The two real roots, ascending, of a monic quadratic a = c + b x + x^2
    whose discriminant D = b^2 - 4c is positive and not a square, each as
    the midpoint of a dyadic cell of (-B, B] for the Cauchy bound
    B = 2 + max(|b|, |c|), as (den, [n_lo, n_hi]) over a power of two den.

    Halving (-B, B] level by level, the isolating level is the first whose
    cells part the two roots; each root is returned as the midpoint of its
    cell bits levels further down, within 2^-bits * 2B of it.  The roots
    r = (-b -+ sqrt(D)) / 2 are irrational, so neither sits on a dyadic
    point, and at level k, r lies in cell floor((r + B) 2^k / 2B), a floor
    of (P -+ sqrt(D 4^k)) / 4B with P = (2B - b) 2^k: one `isqrt` gives
    both roots' cells.  The isolating level is read off the top differing
    bit of the cells at any level where cells are narrower than sqrt(D).
    """
    c, b, lead = a
    disc = b * b - 4 * c
    if lead != 1 or disc <= 0 or isqrt(disc) ** 2 == disc:
        raise DomainError("need a monic quadratic with positive non-square discriminant")
    bound = 2 + max(abs(b), abs(c))

    def cells(level):
        s = isqrt(disc << 2 * level)
        p = (2 * bound - b) << level
        return (p - s - 1) // (4 * bound), (p + s) // (4 * bound)

    # isqrt(disc) has (disc.bit_length() + 1) // 2 bits
    level = (2 * bound).bit_length() - (disc.bit_length() + 1) // 2 + 2
    low, high = cells(level)
    level += bits + 1 - (low ^ high).bit_length()
    return 1 << level, [(2 * j + 1 - (1 << level)) * bound for j in cells(level)]


# ---------------------------------------------------------------------------
# integer matrices and Hermite normal form


def _xgcd(a, b):
    """(g, s, t) with s a + t b = g = gcd(a, b) >= 0."""
    s, s1, t, t1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        s, s1 = s1, s - q * s1
        t, t1 = t1, t - q * t1
    return (a, s, t) if a >= 0 else (-a, -s, -t)


def hnf_int(rows):
    """Row-style HNF of an integer matrix, by extended-gcd elimination.

    Column by column, the first row with a nonzero entry becomes the pivot
    row, and every entry below the pivot is cleared by one unimodular 2x2
    step: an exact quotient when the pivot divides it, else the `_xgcd`
    step that leaves their gcd as the pivot (Cohen, GTM 138, 2.4).  The
    pivot is then made positive and the rows above it reduced into
    [0, pivot).  Returns (hnf_rows, rank), zero rows at the bottom.  A
    kernel comes from the same call on an augmented matrix: the HNF rows of
    [A | B] whose A block is zero carry the HNF of the sublattice of B's
    span that A maps to zero.
    """
    m = [list(r) for r in rows]
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    r = 0
    for col in range(ncols):
        if r == nrows:
            break
        piv = next((i for i in range(r, nrows) if m[i][col]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        top = m[r]
        for i in range(piv + 1, nrows):
            b = m[i][col]
            if not b:
                continue
            a = top[col]
            row = m[i]
            q, rem = divmod(b, a)
            if not rem:
                m[i] = [x - q * y for x, y in zip(row, top)]
                continue
            g, s, t = _xgcd(a, b)
            a, b = a // g, b // g
            m[i] = [a * y - b * x for x, y in zip(top, row)]
            m[r] = top = [s * x + t * y for x, y in zip(top, row)]
        if top[col] < 0:
            m[r] = top = [-x for x in top]
        p = top[col]
        for i in range(r):
            q = m[i][col] // p
            if q:
                m[i] = [x - q * y for x, y in zip(m[i], top)]
        r += 1
    return m, r


def lattice_hnf(rows, dim, den=1):
    """Canonical (den, rows) pair for the lattice spanned by rows / den.

    Rows hold integers and den is a nonzero integer; the span must have
    full rank `dim`, and redundant generators are fine.
    """
    h, rank = hnf_int(rows)
    if rank < dim:
        raise RankError(f"generators span rank {rank} < {dim}")
    h = h[:rank]
    den = abs(den)  # a lattice is its own negative
    g = gcd(den, *(x for row in h for x in row))
    if g > 1:
        den //= g
        h = [[x // g for x in row] for row in h]
    return den, tuple(tuple(row) for row in h)


def mat_mul(a, b):
    n, k, m = len(a), len(b), len(b[0])
    out = [[0] * m for _ in range(n)]
    for i in range(n):
        ai = a[i]
        oi = out[i]
        for t in range(k):
            x = ai[t]
            if x == 0:
                continue
            bt = b[t]
            for j in range(m):
                oi[j] += x * bt[j]
    return out


def mat_transpose(a):
    return [list(col) for col in zip(*a)]
