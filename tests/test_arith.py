import itertools
import math
import random
from bisect import bisect_right
from fractions import Fraction
from math import gcd, isqrt

import pytest
from lattice_oracle import integer_rows
from poly_oracle import cauchy_root_bound, cell_fractions, isolate_real_roots, poly_derivative
from poly_oracle import poly_divmod_exact, poly_gcd, poly_primitive, real_roots, refine_root
from poly_oracle import sign_variations, sturm_chain, yun_decomposition

from ppav import arith, orders
from ppav.errors import DomainError, FactorError, RankError


def trial_division(n):
    """Independent factorization oracle for small n."""
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def frac_eval(poly, x):
    acc = Fraction(0)
    for c in reversed(poly):
        acc = acc * x + c
    return acc


def classical_sturm_chain(poly):
    """a, a', -rem(a, a'), ... by long division over Fractions."""
    chain = [[Fraction(c) for c in poly]]
    chain.append([i * c for i, c in enumerate(chain[0])][1:])
    while len(chain[-1]) > 1:
        r, b = list(chain[-2]), chain[-1]
        while len(r) >= len(b):
            c, shift = r[-1] / b[-1], len(r) - len(b)
            for i, x in enumerate(b):
                r[shift + i] -= c * x
            while r and r[-1] == 0:
                r.pop()
        if not r:
            break
        chain.append([-x for x in r])
    return chain


def frac_variations(chain, x):
    signs = [v > 0 for v in (frac_eval(p, x) for p in chain) if v != 0]
    return sum(s != t for s, t in zip(signs, signs[1:]))


def bisection_oracle(poly, lo, hi, bits):
    """Fraction bisection of an isolating interval (lo, hi] of squarefree poly."""
    chain, lo, hi = classical_sturm_chain(poly), Fraction(lo), Fraction(hi)
    if frac_eval(poly, hi) == 0:
        return hi
    while frac_eval(poly, lo) == 0:
        mid = (lo + hi) / 2
        if frac_eval(poly, mid) == 0:
            return mid
        if frac_variations(chain, lo) - frac_variations(chain, mid) == 1:
            hi = mid
        else:
            lo = mid
    for _ in range(bits):
        mid = (lo + hi) / 2
        fm = frac_eval(poly, mid)
        if fm == 0:
            return mid
        if (fm > 0) == (frac_eval(poly, hi) > 0):
            hi = mid
        else:
            lo = mid
    return (lo + hi) / 2


def poly_mul(a, b):
    """Product of two nonzero integer polynomials."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def squarefree_part(poly):
    """Product of the squarefree factors of poly: its primitive squarefree part."""
    out = [1]
    for factor, _ in yun_decomposition(poly):
        out = poly_mul(out, factor)
    return out


def sturm_count(a, lo, hi):
    """Roots of squarefree a in (lo, hi], from the oracle's integer Sturm chain."""
    chain = sturm_chain(arith.poly_trim(a))
    assert len(chain[-1]) == 1
    lo, hi = Fraction(lo), Fraction(hi)
    return sign_variations(chain, lo.numerator, lo.denominator) - sign_variations(
        chain, hi.numerator, hi.denominator
    )


def random_squarefree(rng, lo_deg, hi_deg):
    """Primitive squarefree integer polynomial, leading coefficient of either sign."""
    while True:
        deg = rng.randrange(lo_deg, hi_deg + 1)
        lead = rng.choice([-3, -2, -1, 1, 2, 3])
        poly = [rng.randrange(-9, 10) for _ in range(deg)] + [lead]
        if len(poly_gcd(poly, poly_derivative(poly))) == 1:
            return poly


def lattice_basis(lattice):
    den, rows = lattice
    return [[Fraction(x, den) for x in row] for row in rows]


class TestHnf:
    def test_identity(self):
        assert lattice_basis(arith.lattice_hnf([[1, 0], [0, 1]], 2)) == [[1, 0], [0, 1]]

    def test_canonical_two_by_two(self):
        h = lattice_basis(arith.lattice_hnf([[2, 0], [1, 1]], 2))
        assert h == [[1, 1], [0, 2]]
        # oracle: mutual membership, both generate the same lattice
        for v in ((2, 0), (1, 1)):
            a, b = v
            # solve (a,b) = x*(1,1) + y*(0,2)
            x = a
            y = Fraction(b - x, 2)
            assert y.denominator == 1
        for v in ((1, 1), (0, 2)):
            a, b = v
            # (a,b) = x*(2,0) + y*(1,1) -> y = b, x = (a-b)/2
            assert (a - b) % 2 == 0

    def test_fractional_fixed_point(self):
        half = Fraction(1, 2)
        den, rows = integer_rows([[half, 0], [0, half]])
        h = lattice_basis(arith.lattice_hnf(rows, 2, den))
        assert h == [[half, 0], [0, half]]

    def test_rank_error(self):
        with pytest.raises(RankError):
            arith.lattice_hnf([[1, 2], [2, 4]], 2)

    def test_idempotent_on_random_matrices(self):
        rng = random.Random(42)
        done = 0
        while done < 1000:
            m = [[rng.randrange(-9, 10) for _ in range(3)] for _ in range(3)]
            try:
                h = arith.lattice_hnf(m, 3)
            except RankError:
                continue
            den, rows = integer_rows(lattice_basis(h))
            assert arith.lattice_hnf(rows, 3, den) == h
            done += 1

    def test_same_lattice_same_hnf(self):
        rng = random.Random(5)
        for _ in range(200):
            m = [[rng.randrange(-9, 10) for _ in range(3)] for _ in range(3)]
            try:
                h = arith.lattice_hnf(m, 3)
            except RankError:
                continue
            # unimodular row mix must not change the HNF
            mixed = [list(row) for row in m]
            mixed[0] = [a + 3 * b for a, b in zip(mixed[0], mixed[1])]
            mixed[1], mixed[2] = mixed[2], mixed[1]
            assert arith.lattice_hnf(mixed, 3) == h


def euclid_hnf(rows, transform=False):
    """Reference HNF: each Euclid round sorts the live rows of the column by
    |entry| and reduces the others by the smallest.  With transform, also
    the unimodular U with U @ M = H, whose rows beyond the rank span the
    left kernel of M."""
    m = [list(r) for r in rows]
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    u = [[1 if i == j else 0 for j in range(nrows)] for i in range(nrows)] if transform else None
    r = 0
    for col in range(ncols):
        pivot = None
        while True:
            live = [i for i in range(r, nrows) if m[i][col] != 0]
            if not live:
                break
            if len(live) == 1:
                pivot = live[0]
                break
            live.sort(key=lambda i: abs(m[i][col]))
            base = live[0]
            for i in live[1:]:
                q = m[i][col] // m[base][col]
                if q:
                    m[i] = [a - q * b for a, b in zip(m[i], m[base])]
                    if transform:
                        u[i] = [a - q * b for a, b in zip(u[i], u[base])]
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        if transform:
            u[r], u[pivot] = u[pivot], u[r]
        if m[r][col] < 0:
            m[r] = [-a for a in m[r]]
            if transform:
                u[r] = [-a for a in u[r]]
        for i in range(r):
            q = m[i][col] // m[r][col]
            if q:
                m[i] = [a - q * b for a, b in zip(m[i], m[r])]
                if transform:
                    u[i] = [a - q * b for a, b in zip(u[i], u[r])]
        r += 1
    if transform:
        return m, r, u
    return m, r


def is_hnf(rows):
    """Upper echelon, positive pivots, entries above each pivot in [0, pivot)."""
    lead = -1
    for i, row in enumerate(rows):
        j = next(j for j, x in enumerate(row) if x)
        if j <= lead or row[j] <= 0 or not all(0 <= above[j] < row[j] for above in rows[:i]):
            return False
        lead = j
    return True


def big_matrix(rng, nrows, ncols, bits):
    """Entries up to `bits` bits, some zero; every third matrix has rank below min(nrows, ncols)."""
    if rng.random() < 1 / 3:
        k = rng.randrange(1, min(nrows, ncols))
        half = 1 << (bits // 2)
        a = [[rng.randrange(-half, half + 1) for _ in range(k)] for _ in range(nrows)]
        b = [[rng.randrange(-half, half + 1) for _ in range(ncols)] for _ in range(k)]
        return arith.mat_mul(a, b)
    top = 1 << bits
    return [
        [rng.choice([0, rng.randrange(-top, top + 1)]) for _ in range(ncols)] for _ in range(nrows)
    ]


class TestExtendedGcdHnf:
    SHAPES = ((4, 4), (8, 4), (16, 4), (12, 6), (20, 8))

    def test_xgcd(self):
        rng = random.Random(3)
        for _ in range(500):
            a, b = rng.randrange(-(10**30), 10**30), rng.randrange(-(10**30), 10**30)
            g, s, t = arith._xgcd(a, b)
            assert g == gcd(a, b) and s * a + t * b == g

    def test_equals_euclid_oracle(self):
        rng = random.Random(101)
        deficient = 0
        for nrows, ncols in self.SHAPES:
            for bits in (3, 40, 200):
                for _ in range(4):
                    m = big_matrix(rng, nrows, ncols, bits)
                    h, rank = arith.hnf_int(m)
                    assert (h, rank) == euclid_hnf(m), m
                    assert is_hnf(h[:rank]) and not any(any(row) for row in h[rank:])
                    deficient += rank < min(nrows, ncols)
        assert deficient >= 10

    def test_augmented_kernel(self):
        # the HNF rows of [M | I] with zero M block are the HNF of the left
        # kernel that the Euclid transform finds
        rng = random.Random(103)
        for nrows, ncols in self.SHAPES:
            for bits in (3, 40):
                for _ in range(2):
                    m = big_matrix(rng, nrows, ncols, bits)
                    eye = [[int(i == j) for j in range(nrows)] for i in range(nrows)]
                    h, _ = arith.hnf_int([row + e for row, e in zip(m, eye)])
                    kernel = [row[ncols:] for row in h if not any(row[:ncols])]
                    _, rank, u = euclid_hnf(m, transform=True)
                    k, size = arith.hnf_int(u[rank:])
                    assert kernel == k[:size] and size == nrows - rank


def cofactor_det(m):
    """Determinant by cofactor expansion along the first row."""
    if not m:
        return 1
    return sum(
        (-1) ** j * m[0][j] * cofactor_det([row[:j] + row[j + 1 :] for row in m[1:]])
        for j in range(len(m))
    )


def fraction_pivots(rows):
    """Pivot columns of the row echelon form, by Gaussian elimination over Fractions."""
    m = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    for col in range(len(m[0])):
        r = len(pivots)
        piv = next((i for i in range(r, len(m)) if m[i][col] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(r + 1, len(m)):
            f = m[i][col] / m[r][col]
            m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(col)
    return pivots


def random_matrix(rng, nrows, ncols):
    """Sparse full-rank-ish entries, or a product of rank below min(nrows, ncols)."""
    if rng.random() < 0.3 and min(nrows, ncols) > 1:
        k = rng.randrange(1, min(nrows, ncols))
        a = [[rng.randrange(-3, 4) for _ in range(k)] for _ in range(nrows)]
        b = [[rng.randrange(-3, 4) for _ in range(ncols)] for _ in range(k)]
        return arith.mat_mul(a, b)
    return [
        [rng.choice([0, 0, rng.randrange(-9, 10)]) for _ in range(ncols)] for _ in range(nrows)
    ]


class TestKernel:
    def test_det_against_cofactor_expansion(self):
        rng = random.Random(71)
        singular = 0
        for _ in range(1500):
            n = rng.randrange(1, 6)
            m = random_matrix(rng, n, n)
            d = arith.det(m)
            assert d == cofactor_det(m), m
            singular += d == 0
        assert singular > 300

    def test_inverse_is_adjugate(self):
        rng = random.Random(73)
        for _ in range(600):
            n = rng.randrange(1, 6)
            m = random_matrix(rng, n, n)
            if cofactor_det(m) == 0:
                with pytest.raises(RankError):
                    arith.inverse(m)
                continue
            d, x = arith.inverse(m)
            assert d == cofactor_det(m)
            assert arith.mat_mul(m, x) == [[d * (i == j) for j in range(n)] for i in range(n)]

    def test_pivots_match_fraction_rank_oracle(self):
        rng = random.Random(79)
        for _ in range(3000):
            m = random_matrix(rng, rng.randrange(1, 6), rng.randrange(1, 7))
            echelon, pivots, sign = arith.echelon(m)
            assert pivots == fraction_pivots(m), m
            assert sign in (1, -1)
            for r, c in enumerate(pivots):
                assert echelon[r][c] != 0 and all(row[c] == 0 for row in echelon[r + 1 :])

    def test_lattice_contains_against_brute_force(self):
        # den * L = span(G) contains N Z^dim for N = |det G|, so membership of
        # w is decided by den * w being integral and its residue mod N
        rng = random.Random(83)
        for dim, poly in ((2, [-2, 0, 1]), (3, [-2, 0, 0, 1])):
            ctx = orders.RingContext(poly)
            done = 0
            while done < 12:
                gens = [[rng.randrange(-3, 4) for _ in range(dim)] for _ in range(dim)]
                n = abs(cofactor_det(gens))
                if not 0 < n <= 12:
                    continue
                den = rng.choice([1, 2, 3])
                lattice = orders.lattice_from_generators(ctx, gens, den)
                residues = {
                    tuple(sum(c * g[j] for c, g in zip(cs, gens)) % n for j in range(dim))
                    for cs in itertools.product(range(n), repeat=dim)
                }
                for _ in range(150):
                    t = rng.choice([1, 2, 3, 6])
                    nums = [rng.randrange(-4 * n * t, 4 * n * t + 1) for _ in range(dim)]
                    if rng.random() < 0.3:  # a lattice point, so both answers occur
                        cs = [rng.randrange(-5, 6) for _ in range(dim)]
                        nums = [t * sum(c * g[j] for c, g in zip(cs, gens)) for j in range(dim)]
                        t *= den
                    scaled = [Fraction(x * den, t) for x in nums]
                    member = all(x.denominator == 1 for x in scaled) and (
                        tuple(int(x) % n for x in scaled) in residues
                    )
                    assert lattice.contains([Fraction(x, t) for x in nums]) == member
                    assert lattice.contains(nums, t) == member
                    c = lattice.coordinates(nums, t)
                    assert (c is not None) == member
                    assert lattice.coordinates([Fraction(x, t) for x in nums]) == c
                    if member:  # c @ rows / den == nums / t
                        combo = arith.mat_mul([c], [list(row) for row in lattice.rows])[0]
                        assert [x * t for x in combo] == [x * lattice.den for x in nums]
                done += 1


class TestTraceForm:
    def test_small_cases(self):
        assert arith.trace_form([-5, 1]) == [[1]]
        assert arith.trace_form([-2, 0, 1]) == [[2, 0], [0, 4]]
        # x^3 - x - 1: power sums 3, 0, 2, 3, 2
        assert arith.trace_form([-1, -1, 0, 1]) == [[3, 0, 2], [0, 2, 3], [2, 3, 2]]

    def test_power_sums_against_roots(self):
        # (x - 1)(x - 2)(x + 3)(x - 5): Tr(x^k) = 1 + 2^k + (-3)^k + 5^k
        roots = [1, 2, -3, 5]
        poly = [1]
        for r in roots:
            poly = arith.poly_sub([0] + poly, arith.poly_scale(poly, r))
        gram = arith.trace_form(poly)
        assert gram == [[sum(r ** (i + j) for r in roots) for j in range(4)] for i in range(4)]
        disc = 1
        for i, r in enumerate(roots):
            for s in roots[i + 1 :]:
                disc *= (r - s) ** 2
        assert arith.det(gram) == disc


class TestKronecker:
    def test_unit_modulus(self):
        for a in (-5, 0, 3, 17):
            assert arith.kronecker_symbol(a, 1) == 1

    def test_minus_seven_at_two(self):
        # -7 = 1 mod 8
        assert arith.kronecker_symbol(-7, 2) == 1

    def test_five_mod_eleven_against_squares(self):
        squares = {x * x % 11 for x in range(1, 11)}
        expected = 1 if 5 in squares else -1
        assert arith.kronecker_symbol(5, 11) == expected == 1

    def test_euler_criterion_oracle(self):
        for p in (3, 5, 7, 11, 13, 101, 997):
            for a in range(1, 25):
                if a % p == 0:
                    assert arith.kronecker_symbol(a, p) == 0
                    continue
                euler = pow(a, (p - 1) // 2, p)
                expected = 1 if euler == 1 else -1
                assert arith.kronecker_symbol(a, p) == expected

    def test_completely_multiplicative(self):
        rng = random.Random(3)
        for _ in range(500):
            a, b = rng.randrange(-50, 51), rng.randrange(-50, 51)
            n, m = rng.randrange(-50, 51), rng.randrange(-50, 51)
            assert arith.kronecker_symbol(a * b, n) == arith.kronecker_symbol(
                a, n
            ) * arith.kronecker_symbol(b, n)
            assert arith.kronecker_symbol(a, n * m) == arith.kronecker_symbol(
                a, n
            ) * arith.kronecker_symbol(a, m)


class TestFactorize:
    def test_prime_sieve_against_comprehension(self):
        def comprehension(limit):
            sieve = bytearray([1]) * (limit + 1)
            sieve[0:2] = b"\x00\x00"
            for p in range(2, isqrt(limit) + 1):
                if sieve[p]:
                    sieve[p * p :: p] = bytearray(len(range(p * p, limit + 1, p)))
            return [i for i, v in enumerate(sieve) if v]

        primes = comprehension(20000)
        for limit in range(0, 20001, 97):
            assert comprehension(limit) == primes[: bisect_right(primes, limit)]
        for limit in range(20001):
            assert arith._prime_sieve(limit) == primes[: bisect_right(primes, limit)], limit

    def test_one(self):
        assert arith.factorize(1) == {}

    def test_prime_power_against_trial_division(self):
        for q in range(-3, 20000):
            fac = trial_division(q) if q >= 2 else {}
            expected = next(iter(fac.items())) if len(fac) == 1 else None
            assert arith.is_prime_power(q) == expected, q

    def test_prime_power_exponents(self):
        for p in arith.small_primes()[:303]:  # the primes below 2000
            for k in range(1, 9):
                assert arith.is_prime_power(p**k) == (p, k)

    def test_prime_power_without_factoring(self, monkeypatch):
        # factoring 10^72 + 1 spends many seconds in Pollard-Brent rho
        def no_factoring(*args):
            raise AssertionError("is_prime_power factored")

        monkeypatch.setattr(arith, "factorize", no_factoring)
        assert arith.is_prime_power(10**72 + 1) is None
        assert arith.is_prime_power((10**12 + 39) ** 6) == (10**12 + 39, 6)
        assert arith.is_prime_power(10**12 + 39) == (10**12 + 39, 1)
        assert arith.is_prime_power((10**12 + 39) * (10**12 + 61)) is None
        assert arith.is_prime_power(6**40) is None

    def test_small_composite(self):
        assert arith.factorize(2772) == {2: 2, 3: 2, 7: 1, 11: 1}

    def test_prime(self):
        assert arith.factorize(701) == {701: 1}

    def test_divisors_against_brute_force(self):
        for n in range(1, 2001):
            brute = [d for d in range(1, n + 1) if n % d == 0]
            assert arith.divisors(n) == brute

    def test_reassembly_against_trial_division(self):
        rng = random.Random(9)
        for _ in range(300):
            n = rng.randrange(2, 10**6)
            fac = arith.factorize(n)
            assert fac == trial_division(n)
            prod = 1
            for p, e in fac.items():
                assert arith.is_prime(p)
                prod *= p**e
            assert prod == n

    def test_large_semiprime(self):
        p, q = 1_000_003, 1_000_033
        assert arith.factorize(p * q) == {p: 1, q: 1}

    def test_96_bit_range(self):
        n = (2**48 - 59) * (2**48 - 257)
        fac = arith.factorize(n)
        prod = 1
        for p, e in fac.items():
            prod *= p**e
        assert prod == n

    def test_factor_error_carries_partial(self):
        n = (2**48 - 59) * (2**48 - 257)
        # no rho round at all, or one that spends a small budget
        for limits in ({"max_rounds": 0}, {"rho_budget": 96 << 12}):
            with pytest.raises(FactorError) as err:
                arith.factorize(12 * n, **limits)
            assert err.value.partial == {2: 2, 3: 1}
            assert err.value.cofactor == n
            assert str(err.value) == "factorization stalled at a 96-bit cofactor"

    def test_rho_budget_bounds_one_call(self):
        # with this seed rho splits the 40-bit m in the doubling r = 256,
        # which it may enter only with 2 (1 + 2 + ... + 256) = 1022 steps
        # of budget left; the budget counts steps times bits
        m = 1_000_003 * 1_000_033
        assert arith._pollard_brent(m, random.Random(1), budget=40 * 1022) in (1_000_003, 1_000_033)
        assert arith._pollard_brent(m, random.Random(1), budget=40 * 1022 - 1) is None
        # about 2^24 steps on this 96-bit semiprime
        n = (2**48 - 59) * (2**48 - 257)
        assert arith._pollard_brent(n, random.Random(1), budget=96 << 12) is None

    def test_rho_budget_is_shared_by_the_calls(self):
        # four primes above the trial-division table take three rho splits,
        # of 80, 60 and 40 bits, each in the doubling r = 512, so with
        # 2 (1 + 2 + ... + 512) = 2046 steps each
        primes = (1_000_003, 1_000_033, 1_000_037, 1_000_039)
        n = math.prod(primes)
        assert arith.factorize(12 * n) == {2: 2, 3: 1, **dict.fromkeys(primes, 1)}
        # a budget that covers the first and largest call leaves nothing
        # for the second
        with pytest.raises(FactorError) as err:
            arith.factorize(12 * n, rho_budget=80 * 2046)
        assert err.value.partial == {2: 2, 3: 1}
        assert err.value.cofactor == n // 1_000_033
        assert str(err.value) == "factorization stalled at a 60-bit cofactor"
        assert arith.factorize(12 * n, rho_budget=(80 + 60 + 40) * 2046) == arith.factorize(12 * n)

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            arith.factorize(0)

    def test_no_primality_test_after_trial_division_passes_root(self, monkeypatch):
        calls = []
        is_prime = arith.is_prime

        def counting(n):
            calls.append(n)
            return is_prime(n)

        monkeypatch.setattr(arith, "is_prime", counting)
        assert arith.factorize(701) == {701: 1}
        assert arith.factorize(2 * 99991) == {2: 1, 99991: 1}
        assert arith.factorize(9973**2) == {9973: 2}
        assert arith.factorize(9973 * 10007) == {9973: 1, 10007: 1}
        assert calls == [10007]
        # a cofactor beyond the trial-division table is still certified
        assert arith.factorize(1_000_003 * 1_000_033) == {1_000_003: 1, 1_000_033: 1}
        assert 1_000_003 in calls and 1_000_033 in calls


def strong_probable_prime(n, a):
    """Whether the odd n > 2 passes the Miller-Rabin round to base a."""
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    x = pow(a, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(r - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


class TestPrimalityBound:
    PSI_13 = 3_317_044_064_679_887_385_961_981
    # psi_k, the least strong pseudoprime to the first k prime bases, as its
    # factorization (Jaeschke 1993, Sorenson-Webster 2017, OEIS A014233)
    PSI_FACTORS = [
        (23, 89),
        (829, 1657),
        (2251, 11251),
        (151, 751, 28351),
        (6763, 10627, 29947),
        (1303, 16927, 157543),
        (10670053, 32010157),
        (10670053, 32010157),
        (149491, 747451, 34233211),
        (149491, 747451, 34233211),
        (149491, 747451, 34233211),
        (399165290221, 798330580441),
        (1287836182261, 2575672364521),
    ]

    def test_psi_table(self):
        assert arith._MR_PSI == tuple(math.prod(f) for f in self.PSI_FACTORS)
        assert arith._MR_PSI[-1] == self.PSI_13

    def test_each_psi_is_a_composite_strong_pseudoprime_to_its_prefix(self):
        for k, psi in enumerate(arith._MR_PSI, 1):
            assert min(self.PSI_FACTORS[k - 1]) > 1
            assert all(strong_probable_prime(psi, a) for a in arith._MR_BASES[:k]), k
            if k < 13:
                # the next base that tells it apart is in the prefix for psi_k
                assert arith.is_prime(psi) is False, k

    def test_agrees_with_the_sieve(self):
        limit = 2 * 10**5
        assert [n for n in range(limit) if arith.is_prime(n)] == arith._prime_sieve(limit - 1)

    def test_below_bound_is_decided(self):
        assert arith.is_prime(self.PSI_13 - 2) is False

    def test_composite_above_bound(self):
        assert arith.is_prime((2**61 - 1) * (2**31 - 1)) is False
        assert arith.is_prime(3 * (2**89 - 1)) is False

    def test_prime_above_bound_is_unproven(self):
        with pytest.raises(DomainError):
            arith.is_prime(2**89 - 1)
        # psi_13 itself is composite yet passes every base
        with pytest.raises(DomainError):
            arith.is_prime(self.PSI_13)


class TestSturm:
    """The reference Sturm path of `poly_oracle` against classical Fraction
    chains, and `arith.quadratic_real_roots` against that reference."""

    def test_sqrt_two_in_unit_window(self):
        assert sturm_count([-2, 0, 1], 0, 2) == 1

    def test_no_real_roots(self):
        assert sturm_count([1, 0, 1], -10, 10) == 0

    def test_real_companion_roots(self):
        # roots 3 +- sqrt(23), about -1.796 and 7.796
        assert sturm_count([-14, -6, 1], -10, 10) == 2

    def test_half_open_semantics(self):
        # roots of x^2 - 4 at +-2
        assert sturm_count([-4, 0, 1], -2, 2) == 1
        assert sturm_count([-4, 0, 1], Fraction(-5, 2), 2) == 2

    def test_rejects_non_squarefree(self):
        # the chain of (x + 1)^2 ends in gcd(a, a') = x + 1
        chain = sturm_chain([1, 2, 1])
        assert chain[-1] == [1, 1]
        with pytest.raises(DomainError):
            isolate_real_roots([1, 2, 1], chain)

    @pytest.mark.parametrize("poly", [[1, 2, 1], [1, -1, -1, 1]])
    def test_repeated_root_rejected(self, poly):
        # (x + 1)^2 and (x - 1)^2 (x + 1): refining them gave -4 and [-1, ~1e-24]
        chain = sturm_chain(poly)
        with pytest.raises(DomainError):
            real_roots(poly, chain)
        with pytest.raises(DomainError):
            isolate_real_roots(poly, chain)

    def test_against_grid_bisection_oracle(self):
        rng = random.Random(11)
        checked = 0
        while checked < 200:
            deg = rng.randrange(2, 5)
            poly = [rng.randrange(-8, 9) for _ in range(deg)] + [1]
            poly = squarefree_part(poly)
            if len(poly) < 3:
                continue
            bound = cauchy_root_bound(poly)
            # oracle: sign changes on a fine grid, refined to rule out misses
            steps = 4096
            # x_i = -bound + 2 bound i / steps = n_i / steps; steps^deg * poly(x_i)
            # is the integer sum of c_j n_i^j steps^(deg - j), with the same sign
            scaled = [c * steps ** (len(poly) - 1 - j) for j, c in enumerate(poly)]
            vals = []
            for i in range(steps + 1):
                n = bound * (2 * i - steps)
                acc = 0
                for c in reversed(scaled):
                    acc = acc * n + c
                vals.append(acc)
            oracle = 0
            for a, b in zip(vals, vals[1:]):
                if a == 0:
                    oracle += 1
                elif (a > 0) != (b > 0) and b != 0:
                    oracle += 1
            if vals[-1] == 0:
                oracle += 1
            count = sturm_count(poly, Fraction(-bound), Fraction(bound))
            if count != oracle:
                # grid may straddle a near-double root; verify with isolation
                assert len(isolate_real_roots(poly, sturm_chain(poly))) == count
            checked += 1

    def test_real_roots_refined(self):
        roots = real_roots([-2, 0, 1], sturm_chain([-2, 0, 1]))
        assert len(roots) == 2
        assert abs(float(roots[0]) + 2**0.5) < 1e-15
        assert abs(float(roots[1]) - 2**0.5) < 1e-15

    def test_chain_terms_are_positive_multiples_of_classical(self):
        rng = random.Random(21)
        for _ in range(150):
            poly = random_squarefree(rng, 2, 6)
            chain, classical = sturm_chain(poly), classical_sturm_chain(poly)
            assert len(chain) == len(classical)
            for term, ref in zip(chain, classical):
                assert len(term) == len(ref)
                assert all(type(c) is int for c in term)
                ratio = Fraction(term[-1]) / ref[-1]
                assert ratio > 0
                assert all(c == ratio * r for c, r in zip(term, ref))

    def test_refinement_equals_fraction_bisection(self):
        rng = random.Random(22)
        for _ in range(60):
            poly = random_squarefree(rng, 2, 6)
            # rational roots make the bisection land on a root now and then
            if rng.random() < 0.3:
                poly = poly_mul(poly, [rng.randrange(-6, 7), rng.choice([1, 2])])
                if len(poly_gcd(poly, poly_derivative(poly))) != 1:
                    continue
            bits = rng.choice([0, 1, 5, 40, 80])
            sturm = sturm_chain(poly)
            intervals = isolate_real_roots(poly, sturm)
            bound = cauchy_root_bound(poly)
            chain = classical_sturm_chain(poly)
            assert len(intervals) == frac_variations(chain, -bound) - frac_variations(chain, bound)
            oracle = [bisection_oracle(poly, lo, hi, bits) for lo, hi in intervals]
            for (lo, hi), want in zip(intervals, oracle):
                assert frac_variations(chain, lo) - frac_variations(chain, hi) == 1
                got = refine_root(poly, sturm, lo, hi, bits)
                assert type(got) is Fraction and got == want
            assert real_roots(poly, sturm, bits) == oracle

    @pytest.mark.parametrize(
        "poly, lo, hi",
        [
            ([-4, 0, 1], -2, 3),  # lower endpoint is the root -2
            ([-4, 0, 1], -2, 6),  # first midpoint is the root 2
            ([-2, 1, 1], -2, 30),  # roots -2 and 1: the bracket shrinks from above first
            ([-4, 0, 1], Fraction(1, 3), Fraction(7, 3)),  # endpoints that are not dyadic
        ],
    )
    def test_refinement_from_a_root_endpoint(self, poly, lo, hi):
        want = bisection_oracle(poly, lo, hi, 80)
        assert refine_root(poly, sturm_chain(poly), lo, hi) == want


    @pytest.mark.parametrize(
        "poly, lo, hi, bits",
        [
            ([-3, 1024], 0, 1, 10),  # root 3/1024: a grid point first reached at level 10
            ([-5, 16], 0, 1, 10),  # root 5/16: a grid point from level 4 on
            (poly_mul([-5, 16], [7, 1]), 0, 1, 64),
            ([-37, 96], Fraction(1, 3), Fraction(7, 3), 6),  # 37/96 = 1/3 + (2/3) 5/2^6
            ([-37, 96], Fraction(1, 3), Fraction(7, 3), 5),  # the same root off the coarser grid
            (poly_mul([-37, 96], [1, 0, 1]), Fraction(1, 3), Fraction(7, 3), 80),
        ],
    )
    def test_refinement_of_a_root_on_the_grid(self, poly, lo, hi, bits):
        want = bisection_oracle(poly, lo, hi, bits)
        assert refine_root(poly, sturm_chain(poly), lo, hi, bits) == want

    def test_refinement_in_non_dyadic_brackets(self):
        rng = random.Random(24)
        for _ in range(60):
            poly = random_squarefree(rng, 1, 5)
            chain, sturm = classical_sturm_chain(poly), sturm_chain(poly)
            for lo, hi in isolate_real_roots(poly, sturm):
                # pull both ends in by thirds and sevenths while one root stays inside
                for _ in range(8):
                    a = lo + (hi - lo) * Fraction(rng.randrange(0, 3), 7)
                    b = hi - (hi - lo) * Fraction(rng.randrange(0, 3), 3)
                    if frac_variations(chain, a) - frac_variations(chain, b) == 1:
                        lo, hi = a, b
                bits = rng.choice([3, 40, 80])
                assert refine_root(poly, sturm, lo, hi, bits) == bisection_oracle(poly, lo, hi, bits)

    def test_refinement_of_huge_quadratics(self):
        # real companions y^2 + a y + (b - 2q) of surface classes with q ~ 10^72
        rng = random.Random(25)
        q = 10**72 + 1
        s = isqrt(4 * q)
        for _ in range(6):
            a = rng.randrange(-s, s)
            c = rng.randrange(-(a * a) // 4 - 10**71, a * a // 4)  # two real roots
            poly = [c, a, 1]
            if isqrt(a * a - 4 * c) ** 2 == a * a - 4 * c:
                continue
            bits = 64 + max(abs(x) for x in poly).bit_length()
            chain = sturm_chain(poly)
            roots = real_roots(poly, chain, bits)
            intervals = isolate_real_roots(poly, chain)
            assert roots == [bisection_oracle(poly, lo, hi, bits) for lo, hi in intervals]
            assert len(roots) == 2

    def test_closed_form_quadratic_roots(self):
        # monic quadratics of any size, down to roots a cell apart
        rng = random.Random(26)
        checked = 0
        while checked < 400:
            size = 10 ** rng.choice([1, 3, 12, 40])
            b, c = rng.randrange(-size, size + 1), rng.randrange(-size, size + 1)
            if rng.random() < 0.3:
                c = (b * b - rng.randrange(1, 9)) // 4  # near-double root
            poly = [c, b, 1]
            disc = b * b - 4 * c
            if disc <= 0 or isqrt(disc) ** 2 == disc:
                continue
            bits = rng.choice([0, 1, 5, 80, 64 + max(abs(x) for x in poly).bit_length()])
            assert cell_fractions(arith.quadratic_real_roots(poly, bits)) == real_roots(
                poly, sturm_chain(poly), bits
            )
            checked += 1

    @pytest.mark.parametrize("poly", [[1, 0, 1], [1, 2, 1], [2, -3, 1], [-4, 0, 1], [-3, 0, 2]])
    def test_closed_form_needs_a_monic_non_square_discriminant(self, poly):
        with pytest.raises(DomainError):
            arith.quadratic_real_roots(poly)


class TestPolyHelpers:
    """Yun's squarefree split and the polynomial helpers of `poly_oracle`."""

    def test_squarefree_part(self):
        # (x-1)^2 (x+2)
        poly = poly_mul(poly_mul([-1, 1], [-1, 1]), [2, 1])
        assert squarefree_part(poly) == poly_mul([-1, 1], [2, 1])

    def test_squarefree_decomposition(self):
        poly = poly_mul(poly_mul([-1, 1], [-1, 1]), [2, 1])
        split = yun_decomposition(poly)
        assert split == [([2, 1], 1), ([-1, 1], 2)]

    def test_squarefree_decomposition_equal_multiplicities(self):
        # (x-1)^2 (x+2)^2: one squarefree factor of multiplicity two
        poly = poly_mul(
            poly_mul([-1, 1], [-1, 1]), poly_mul([2, 1], [2, 1])
        )
        split = yun_decomposition(poly)
        assert split == [(poly_mul([-1, 1], [2, 1]), 2)]

    def test_squarefree_decomposition_triple(self):
        poly = poly_mul(poly_mul([-1, 1], [-1, 1]), [-1, 1])
        assert yun_decomposition(poly) == [([-1, 1], 3)]

    def test_squarefree_decomposition_identities(self):
        rng = random.Random(23)
        for _ in range(80):
            poly = [rng.choice([-6, -2, 3, 5])]  # a content to strip
            for _ in range(rng.randrange(1, 4)):
                factor = [rng.randrange(-4, 5) for _ in range(rng.randrange(1, 3))] + [
                    rng.choice([-2, -1, 1, 3])
                ]
                for _ in range(rng.randrange(1, 4)):
                    poly = poly_mul(poly, factor)
            split = yun_decomposition(poly)
            product = [1]
            for factor, mult in split:
                assert factor == poly_primitive(factor) and len(factor) > 1
                assert poly_gcd(factor, poly_derivative(factor)) == [1]
                for _ in range(mult):
                    product = poly_mul(product, factor)
            assert product == poly_primitive(poly)
            mults = [m for _, m in split]
            assert mults == sorted(set(mults))
            for i, (f, _) in enumerate(split):
                for g, _ in split[i + 1 :]:
                    assert poly_gcd(f, g) == [1]

    def test_divmod_exact(self):
        q, r = poly_divmod_exact([-4, 0, 1], [-2, 1])
        assert q == [2, 1] and r == []

    def test_gcd(self):
        # (x + 1)^2 (x - 3) (x + 5): the chain of a ends in gcd(a, a') = x + 1
        a = poly_mul(poly_mul([1, 1], [-3, 1]), poly_mul([1, 1], [5, 1]))
        assert poly_primitive(sturm_chain(a)[-1]) == [1, 1]
        split = yun_decomposition(a)
        assert split == [(poly_mul([-3, 1], [5, 1]), 1), ([1, 1], 2)]


class TestMatrixHelpers:
    def test_inverse_round_trip(self):
        rng = random.Random(13)
        for _ in range(50):
            m = [[rng.randrange(-9, 10) for _ in range(3)] for _ in range(3)]
            if arith.det(m) == 0:
                continue
            d, inv = arith.inverse(m)
            assert arith.mat_mul(m, inv) == [[d * (i == j) for j in range(3)] for i in range(3)]

    def test_divisors(self):
        assert arith.divisors(12) == [1, 2, 3, 4, 6, 12]
        assert arith.divisors(1) == [1]

    def test_squarefree_decompose(self):
        assert arith.squarefree_decompose(112) == (7, 4)
        assert arith.squarefree_decompose(92) == (23, 2)
