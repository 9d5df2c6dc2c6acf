"""Closed forms checked against independent brute-force and numeric oracles.

Every expected-value routine here has at least two routes to the same number:
the production code path and an in-test oracle that shares no code with it
(direct subset enumeration, surjection counting, or numeric quadrature).
"""

import itertools
import math
import random
import sys
import time
from fractions import Fraction

import numpy as np
import pytest
from scipy import integrate

from batchlat import analytics
from batchlat.analytics import (
    MAX_BATCH_WORKER_PRODUCT,
    MAX_STRUCTURE_WORKERS,
    ExactProbability,
    coverage_probability,
    coverage_probability_exact_n,
    exact_expected_time_structure,
    expected_time_assignment,
    expected_time_assignment_rational,
    expected_time_balanced,
    expected_time_balanced_rational,
    expected_time_cyclic,
    expected_time_cyclic_rational,
    expected_time_structure_rational,
    harmonic,
    incomplete_subset_counts,
    majorizes,
    rearranged,
    stirling2,
)
from batchlat.model import (
    AssignmentVector,
    ComplexityGuardError,
    DomainError,
    NonPositiveError,
)
from batchlat.policies import (
    cyclic_layout,
    replicated_nonoverlap_layout,
    shared_pair_layout,
)


# ---------------------------------------------------------------------------
# In-test oracles. Deliberately naive; no code shared with the library.

def _count_partitions_brute(n: int, k: int) -> int:
    """Set partitions of an n-set into k blocks, by enumerating all k^n label
    assignments and dividing the surjective ones by k!."""
    if k == 0:
        return 1 if n == 0 else 0
    surjective = sum(
        1 for f in itertools.product(range(k), repeat=n) if len(set(f)) == k
    )
    value, rem = divmod(surjective, math.factorial(k))
    assert rem == 0
    return value


def _expected_time_subsets(counts) -> Fraction:
    """Rate-1 expectation of max-over-batches of min-over-replicas, by direct
    inclusion-exclusion over all non-empty batch subsets."""
    total = Fraction(0)
    b = len(counts)
    for r in range(1, b + 1):
        for subset in itertools.combinations(counts, r):
            total += Fraction((-1) ** (r + 1), sum(subset))
    return total


def _harmonics(n: int) -> list[Fraction]:
    """[H_0, H_1, ..., H_n], each by adding one Fraction to the last."""
    h = [Fraction(0)]
    for k in range(1, n + 1):
        h.append(h[-1] + Fraction(1, k))
    return h


def _expected_time_sequential(counts) -> Fraction:
    """Inclusion-exclusion grouped by replica-count sum: prod_i (1 - x^c_i)
    expanded in a Python list, then summed term by term over one common
    denominator, with a single reduction at the end."""
    poly = [1] + [0] * sum(counts)
    degree = 0
    for c in sorted(counts):
        degree += c
        for w in range(degree, c - 1, -1):
            poly[w] -= poly[w - c]
    num, den = 0, 1
    for w, coef in enumerate(poly):
        if w and coef:
            g = math.gcd(den, w)
            num = num * (w // g) - coef * (den // g)
            den *= w // g
    return Fraction(num, den)


def _survival_nonoverlap(counts, t: float) -> float:
    """P(completion > t) at rate 1 for a replica-count vector."""
    cdf = 1.0
    for c in counts:
        cdf *= 1.0 - math.exp(-c * t)
    return 1.0 - cdf


def _proportional_vectors(total: int, parts: int):
    """Balanced, ramp, two-level and geometric replica counts summing to
    total: parts proportional to weights, the remainder on the last part."""
    shapes = [
        [1.0] * parts,
        [i + 1.0 for i in range(parts)],
        [1.0] * (parts // 2) + [3.0] * (parts - parts // 2),
        [1.2**i for i in range(parts)],
    ]
    for weights in shapes:
        counts = [max(1, int(total * w / sum(weights))) for w in weights]
        counts[-1] += total - sum(counts)
        yield tuple(counts)


def _compositions(total: int, parts: int):
    """All orderings of `total` into `parts` positive integers."""
    for cuts in itertools.combinations(range(1, total), parts - 1):
        bounds = (0,) + cuts + (total,)
        yield tuple(bounds[i + 1] - bounds[i] for i in range(parts))


def _product_groups(counts) -> list[frozenset]:
    """Recovery groups equivalent to a non-overlapping vector: one replica
    per batch, all combinations. Workers numbered batch by batch."""
    offsets = [0]
    for c in counts[:-1]:
        offsets.append(offsets[-1] + c)
    choices = [range(offsets[i], offsets[i] + counts[i]) for i in range(len(counts))]
    return [frozenset(pick) for pick in itertools.product(*choices)]


def _full_mask_counts(groups, n: int) -> tuple[int, ...]:
    """a_k by testing every group against all 2^n subset masks, 2^20 at a time."""
    gms = [np.uint32(sum(1 << w for w in g)) for g in groups]
    counts = np.zeros(n + 1, dtype=np.int64)
    for start in range(0, 1 << n, 1 << 20):
        masks = np.arange(start, min(start + (1 << 20), 1 << n), dtype=np.uint32)
        contains = np.zeros(masks.shape, dtype=bool)
        for gm in gms:
            contains |= (masks & gm) == gm
        counts += np.bincount(np.bitwise_count(masks[~contains]), minlength=n + 1)
    return tuple(int(c) for c in counts)


def _poly_mul(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _binomial_poly(n: int):
    """Coefficients of (1+x)^n."""
    return [math.comb(n, k) for k in range(n + 1)]


def _cyclic_counts(n: int, b: int) -> tuple[int, ...]:
    """a_k of G = n/b disjoint b-groups: coefficients of ((1+x)^b - x^b)^G."""
    factor = _binomial_poly(b)[:-1]
    poly = [1]
    for _ in range(n // b):
        poly = _poly_mul(poly, factor)
    return tuple(poly + [0] * (n + 1 - len(poly)))


def _vector_counts(counts) -> tuple[int, ...]:
    """a_k of a replica-count vector: (1+x)^N - prod_i ((1+x)^c_i - 1)."""
    prod = [1]
    for c in counts:
        prod = _poly_mul(prod, [0] + _binomial_poly(c)[1:])
    total = _binomial_poly(sum(counts))
    return tuple(t - p for t, p in zip(total, prod))


def _relabelled_cyclic(n: int, b: int, seed: int) -> list[frozenset]:
    perm = list(range(n))
    random.Random(seed).shuffle(perm)
    return [frozenset(perm[w] for w in g) for g in cyclic_layout(n, b)[1].groups]


def _surjections_direct(n: int, k: int) -> int:
    """Maps from an n-set onto a k-set, one pow per term of the alternating sum."""
    return sum((-1) ** (k - i) * math.comb(k, i) * i**n for i in range(k + 1))


def _random_masks(n: int, g: int, seed: int) -> list[int]:
    """g distinct non-empty worker masks over n workers: one single worker,
    all workers, then groups nested in an earlier one or drawn at random
    (and so overlapping), in seeded order."""
    rng = random.Random(seed)
    full = (1 << n) - 1
    masks: list[int] = []
    for m in (1 << rng.randrange(n), full):
        if len(masks) < g and m not in masks:
            masks.append(m)
    while len(masks) < g:
        m = rng.choice(masks) & rng.randrange(full + 1) if rng.random() < 0.5 else 0
        m = m or rng.randrange(1, full + 1)
        if m not in masks:
            masks.append(m)
    return masks


def _mask_groups(masks) -> list[set]:
    return [{w for w in range(m.bit_length()) if m >> w & 1} for m in masks]


# Group shapes placed against the closure's 6 in-word workers, the words
# above them and the route threshold of 16; a shape is used only at the N
# where all its workers exist.
_SPLIT_SHAPES = {
    "low": lambda n: [{0, 1}, {1, 2, 3}, {0, 4, 5}],
    "high": lambda n: [{n - 1, n - 2}, {n - 3}],
    "straddle": lambda n: [{13, 14, n - 1}, {n - 2, n - 1}, {2, n - 1}],
    "all-workers": lambda n: [set(range(n))],
    "singletons": lambda n: [{w} for w in range(n)],
    "idle": lambda n: [{1, 3}, {3, 5, n - 1}],
    "mixed": lambda n: [{0, 1}, {n - 1, n - 2}, {13, 14, n - 1}, {2, 7, 11, n - 3}],
}
_SPLIT_CASES = [
    (n, shape)
    for n in (1, 6, 7, 15, 16, 17, 20)
    for shape, build in _SPLIT_SHAPES.items()
    if all(0 <= w < n for g in build(n) for w in g)
]


# Distinct group counts on each side of the route choice, g < min(N, 16).
_ROUTE_CASES = [(n, g) for n in (1, 5, 12, 16, 20, 24) for g in (min(n, 16) - 1, min(n, 16))]


# ---------------------------------------------------------------------------

class TestHarmonic:
    def test_small_values(self):
        assert harmonic(1) == 1
        assert harmonic(2) == Fraction(3, 2)
        assert harmonic(3) == Fraction(11, 6)
        assert harmonic(6) == Fraction(49, 20)

    def test_matches_direct_sum(self):
        # every n up to 130 crosses several tree shapes; the rest sit on
        # both sides of a power of two, up to 3000 terms
        h = _harmonics(3000)
        for n in [*range(1, 131), 255, 256, 257, 1000, 2047, 2048, 2049, 3000]:
            assert harmonic(n) == h[n], n

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            harmonic(0)

    def test_size_guard(self, monkeypatch):
        """H_n is refused past n = 10^5, before any work."""
        assert analytics._MAX_HARMONIC_TERMS == 10**5
        for n in (10**5 + 1, 10**6):
            start = time.perf_counter()
            with pytest.raises(ComplexityGuardError, match=(
                rf"^harmonic number H_{n} exceeds the n <= 100000 guard; "
                "estimate by Monte Carlo instead$"
            )):
                harmonic(n)
            assert time.perf_counter() - start < 0.1
        # the guard is inclusive, and the balanced form goes through it
        monkeypatch.setattr(analytics, "_MAX_HARMONIC_TERMS", 6)
        assert harmonic(6) == Fraction(49, 20)
        assert expected_time_balanced_rational(12, 6) == Fraction(49, 40)
        with pytest.raises(ComplexityGuardError):
            harmonic(7)
        with pytest.raises(ComplexityGuardError):
            expected_time_balanced_rational(7, 7)


class TestSumFractions:
    def test_empty_and_single(self):
        assert analytics._sum_fractions([], []) == 0
        assert analytics._sum_fractions([-3], [6]) == Fraction(-1, 2)

    @pytest.mark.parametrize("length", [2, 3, 5, 7, 8, 9, 31, 33])
    def test_matches_fraction_sum(self, length):
        # odd lengths carry a term up a level; numerators of both signs cancel
        rng = random.Random(length)
        p = [rng.randint(-10**6, 10**6) for _ in range(length)]
        q = [rng.randint(1, 10**4) for _ in range(length)]
        args = (list(p), list(q))
        assert analytics._sum_fractions(*args) == sum(map(Fraction, p, q), Fraction(0))
        assert args == (p, q)  # the caller's lists are left as they were


class TestStirling:
    def test_examples(self):
        assert stirling2(4, 2) == 7
        assert stirling2(6, 3) == 90
        assert stirling2(0, 0) == 1
        assert stirling2(5, 0) == 0
        assert stirling2(3, 5) == 0
        assert stirling2(7, 7) == 1
        assert stirling2(7, 1) == 1

    def test_against_brute_enumeration(self):
        for n in range(0, 7):
            for k in range(0, n + 2):
                assert stirling2(n, k) == _count_partitions_brute(n, k), (n, k)

    def test_two_routes_agree(self):
        for n in range(0, 13):
            for k in range(0, n + 1):
                surjections = analytics._surjections(n, k)
                assert math.factorial(k) * stirling2(n, k) == surjections, (n, k)

    def test_rejects_negative(self):
        with pytest.raises(DomainError):
            stirling2(-1, 2)

    def test_work_guard(self):
        # n^2 * k * log2(k + 1) is exactly 2^34 at (131072, 1), and just past it
        # one step on; at n = 10^200 it is past the float range
        assert stirling2(131_072, 1) == 1
        for n, k in ((131_073, 1), (5080, 100), (10**200, 3)):
            with pytest.raises(ComplexityGuardError, match=(
                rf"^S\({n}, {k}\) exceeds the n\^2\*k\*log2\(k\+1\) <= 2\^34 guard"
                " on the recurrence's work$"
            )):
                stirling2(n, k)


class TestSurjections:
    def test_power_table(self):
        # k up to 45 passes the odd prime squares 9 and 25; 49, 121 and 169
        # end the longer tables
        for n in range(41):
            for k in range(46):
                assert analytics._powers(n, k) == [i**n for i in range(k + 1)], (n, k)
        for n, k in [(0, 49), (1, 121), (7, 169), (40, 169)]:
            assert analytics._powers(n, k) == [i**n for i in range(k + 1)], (n, k)

    def test_matches_direct_sum(self):
        for n in range(41):
            for k in range(46):
                assert analytics._surjections(n, k) == _surjections_direct(n, k), (n, k)
        for n, k in [(2200, 220), (1000, 999), (500, 1)]:
            assert analytics._surjections(n, k) == _surjections_direct(n, k), (n, k)


class TestExactProbability:
    def test_normalization(self):
        p = ExactProbability(540, 729)
        assert (p.numerator, p.denominator) == (20, 27)
        assert p.float_value == 20 / 27
        assert p.fraction == Fraction(20, 27)
        assert p == ExactProbability(20, 27) and hash(p) == hash(ExactProbability(20, 27))
        assert repr(p) == f"ExactProbability(numerator=20, denominator=27, float_value={20 / 27!r})"

    def test_repr_past_the_digit_limit(self):
        p = coverage_probability(220, 2200)
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)  # the interpreter's default
        try:
            text = repr(p)
        finally:
            sys.set_int_max_str_digits(limit)
        assert hex(p.numerator) in text and hex(p.denominator) in text
        assert text.endswith(f"float_value={p.float_value!r})")

    def test_float_is_correctly_rounded(self):
        # Fraction.__float__ is correctly rounded; float_value must match it.
        for num, den in [(1, 3), (90 * 6, 3**6), (10**17 + 1, 3 * 10**17)]:
            p = ExactProbability(num, den)
            assert p.float_value == float(Fraction(num, den))
            assert float(p) == p.float_value

    def test_bounds(self):
        with pytest.raises(DomainError):
            ExactProbability(5, 4)
        with pytest.raises(DomainError):
            ExactProbability(-1, 4)
        with pytest.raises(DomainError):
            ExactProbability(1, 0)
        with pytest.raises(DomainError, match="^numerator and denominator must be integers"):
            ExactProbability(1.5, 2)


class TestCoverage:
    def test_known_values(self):
        assert coverage_probability(2, 2).fraction == Fraction(1, 2)
        assert coverage_probability(3, 6).fraction == Fraction(540, 729)
        assert coverage_probability(1, 1).fraction == 1
        assert coverage_probability(5, 3).fraction == 0

    def test_against_brute_enumeration(self):
        for b in range(1, 5):
            for n in range(1, 8):
                expect = Fraction(
                    math.factorial(b) * _count_partitions_brute(n, b), b**n
                )
                assert coverage_probability(b, n).fraction == expect, (b, n)

    def test_exact_n_against_brute(self):
        # last draw completes coverage: covered at n but not at n-1
        for b in range(2, 5):
            for n in range(b, 8):
                hits = sum(
                    1
                    for f in itertools.product(range(b), repeat=n)
                    if len(set(f)) == b and len(set(f[:-1])) == b - 1
                )
                assert coverage_probability_exact_n(b, n).fraction == Fraction(
                    hits, b**n
                ), (b, n)

    def test_telescoping(self):
        for b in range(1, 7):
            for n in range(b, 15):
                partial = sum(
                    (coverage_probability_exact_n(b, m).fraction for m in range(1, n + 1)),
                    Fraction(0),
                )
                assert partial == coverage_probability(b, n).fraction, (b, n)

    def test_monotone_in_workers(self):
        for b in range(2, 8):
            prev = Fraction(-1)
            for n in range(b, b + 12):
                cur = coverage_probability(b, n).fraction
                assert cur > prev, (b, n)
                prev = cur

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            coverage_probability(0, 5)
        with pytest.raises(DomainError):
            coverage_probability_exact_n(3, 0)

    def test_size_guard(self, monkeypatch):
        routes = (coverage_probability, coverage_probability_exact_n)
        # 11 * 909091 is one above the limit
        assert 11 * 909091 == MAX_BATCH_WORKER_PRODUCT + 1
        for route in routes:
            with pytest.raises(ComplexityGuardError):
                route(11, 909091)
        # B > N needs no sum, so it is never refused
        assert coverage_probability(2 * 10**7, 10**7).fraction == 0
        # the guard is inclusive
        monkeypatch.setattr(analytics, "MAX_BATCH_WORKER_PRODUCT", 3 * 6)
        assert coverage_probability(3, 6).fraction == Fraction(20, 27)
        assert coverage_probability_exact_n(3, 6).fraction == Fraction(90, 729)
        for route in routes:
            with pytest.raises(ComplexityGuardError):
                route(3, 7)

    def test_power_bits_guard(self):
        """B^N is refused past 2^18 bits, inside B * N <= 10^7 too."""
        routes = (coverage_probability, coverage_probability_exact_n)
        assert analytics._MAX_POWER_BITS == 2**18
        n = 2**18
        assert coverage_probability(2, n).fraction == 1 - Fraction(2, 2**n)
        assert coverage_probability_exact_n(2, n).fraction == Fraction(2, 2**n)
        assert coverage_probability(16, 2**16).float_value == 1.0
        assert coverage_probability(220, 2200).float_value > 0.99
        for b, n in ((2, 2**18 + 1), (16, 2**16 + 1), (10, 10**6), (3, 3333333)):
            assert b * n <= MAX_BATCH_WORKER_PRODUCT
            for route in routes:
                with pytest.raises(ComplexityGuardError, match=r"N\*log2\(B\) <= 262144"):
                    route(b, n)


class TestBalanced:
    def test_known_value(self):
        assert expected_time_balanced_rational(6, 3) == Fraction(11, 12)
        assert expected_time_balanced(6, 3) == 11 / 12

    def test_matches_harmonic_sum(self):
        h = _harmonics(300)
        for n, b in [(6, 3), (20, 5), (300, 300), (300, 1), (300, 60)]:
            assert expected_time_balanced_rational(n, b) == Fraction(b, n) * h[b], (n, b)

    def test_matches_assignment_formula(self):
        for n, b in [(4, 2), (6, 3), (8, 4), (12, 4), (20, 5), (9, 3)]:
            counts = (n // b,) * b
            assert expected_time_balanced_rational(n, b) == expected_time_assignment_rational(
                counts
            ), (n, b)

    def test_divisibility_required(self):
        with pytest.raises(DomainError):
            expected_time_balanced_rational(7, 3)

    def test_rate_scaling_exact_in_float(self):
        base = expected_time_balanced(12, 4)
        for rate in (0.5, 2.0, 3.7, 10.0):
            assert expected_time_balanced(12, 4, rate) == base / rate

    def test_rate_bounded(self):
        assert expected_time_balanced(6, 3, 1e-100) == (11 / 12) / 1e-100
        assert expected_time_balanced(6, 3, 1e100) == (11 / 12) / 1e100
        for rate in (1e-101, 1e-320, 1e101, 1e300):
            with pytest.raises(DomainError, match=r"^rate must lie in \[1e-100, 1e100\], got "):
                expected_time_balanced(6, 3, rate)


class TestAssignment:
    def test_known_values(self):
        assert expected_time_assignment_rational((3, 2, 1)) == Fraction(73, 60)
        assert expected_time_assignment_rational((4, 1, 1)) == Fraction(91, 60)
        assert expected_time_assignment_rational((2, 2, 2)) == Fraction(11, 12)
        assert expected_time_assignment_rational((1,)) == 1
        assert expected_time_assignment_rational((10**6,)) == Fraction(1, 10**6)

    def test_against_subset_oracle(self):
        vectors = [
            (1, 1), (2, 1), (5, 4, 3), (2, 2, 2, 2), (1, 1, 1, 1, 1),
            (7, 1, 1, 1), (3, 3, 2, 2, 1, 1), (10, 10), (6, 5, 4, 3, 2, 1),
        ]
        for v in vectors:
            assert expected_time_assignment_rational(v) == _expected_time_subsets(v), v

    def test_against_quadrature(self):
        # integral of the survival function, computed numerically
        for v in [(3, 2, 1), (2, 2, 2), (5, 1)]:
            value, err = integrate.quad(
                lambda t: _survival_nonoverlap(v, t), 0, math.inf
            )
            assert err < 1e-8
            assert expected_time_assignment(v) == pytest.approx(value, rel=1e-8)

    def test_float_tracks_rational(self):
        for v in [(3, 2, 1), (9, 4, 4, 3), (2,) * 12, tuple(range(1, 16))]:
            assert expected_time_assignment(v) == pytest.approx(
                float(expected_time_assignment_rational(v)), rel=1e-12
            )

    def test_exact_flag_uses_rational_route(self):
        # exact=True evaluates in rational arithmetic, rounding once at the end
        got = expected_time_assignment((3, 2, 1), exact=True)
        assert got == float(Fraction(73, 60))
        for v in [(9, 4, 4, 3), (2,) * 12, tuple(range(1, 16))]:
            assert expected_time_assignment(v, exact=True) == float(
                expected_time_assignment_rational(v)
            )

    def test_accepts_assignment_vector(self):
        v = AssignmentVector((3, 2, 1))
        assert expected_time_assignment_rational(v) == Fraction(73, 60)

    def test_rate_scaling_exact_in_float(self):
        base = expected_time_assignment((5, 4, 3))
        for rate in (0.25, 2.0, 7.3):
            assert expected_time_assignment((5, 4, 3), rate) == base / rate

    def test_uncovered_batch_rejected(self):
        # a batch with no worker is refused by the vector type, before the size guard
        for route in (expected_time_assignment_rational, expected_time_assignment):
            with pytest.raises(NonPositiveError, match="^count must be positive, got 0$"):
                route((2, 0, 4))
            with pytest.raises(NonPositiveError):
                route((0, MAX_BATCH_WORKER_PRODUCT))

    def test_float_is_correctly_rounded(self):
        # one rounding of the exact rational, also where the alternating sum
        # cancels hardest: 25 batches, and 4000 workers over 25 batches
        for v in [(2,) * 25, *_proportional_vectors(4000, 25)]:
            assert expected_time_assignment(v) == float(expected_time_assignment_rational(v)), v

    def test_matches_sequential_sum_across_dtype_boundary(self):
        # int64 coefficients up to B = 62, Python ints beyond
        rng = random.Random(62)
        for b in (1, 2, 61, 62, 63, 64, 100):
            for _ in range(3):
                n = rng.randint(b, 4000)
                cuts = sorted(rng.sample(range(1, n), b - 1))
                v = tuple(hi - lo for lo, hi in zip([0, *cuts], [*cuts, n]))
                assert expected_time_assignment_rational(v) == _expected_time_sequential(v), v
        # (1 - x)^B: the coefficients peak at C(B, B/2), past int64 at B = 100
        for b in (62, 63, 64, 100):
            v = (1,) * b
            assert expected_time_assignment_rational(v) == _expected_time_sequential(v), b

    def test_wide_vector_is_exact(self):
        assert expected_time_assignment_rational((2,) * 500) == expected_time_balanced_rational(
            1000, 500
        )

    def test_size_guard(self):
        # 11 batches over 909091 workers: B * N is one above the limit
        over = (82645,) * 10 + (82641,)
        assert len(over) * sum(over) == MAX_BATCH_WORKER_PRODUCT + 1
        with pytest.raises(ComplexityGuardError):
            expected_time_assignment_rational(over)
        with pytest.raises(ComplexityGuardError):
            expected_time_assignment(over)
        # two batches over 10^7 + 1 workers
        with pytest.raises(ComplexityGuardError):
            expected_time_assignment_rational((1, MAX_BATCH_WORKER_PRODUCT))

    def test_at_guard_limit_still_works(self, monkeypatch):
        monkeypatch.setattr(analytics, "MAX_BATCH_WORKER_PRODUCT", 5 * 10)
        got = expected_time_assignment_rational((2,) * 5)
        assert got == expected_time_balanced_rational(10, 5)
        with pytest.raises(ComplexityGuardError):
            expected_time_assignment_rational((2,) * 4 + (3,))


class TestCyclic:
    def test_known_values(self):
        assert expected_time_cyclic_rational(6, 3) == Fraction(73, 60)
        h = _harmonics(50)
        assert expected_time_cyclic_rational(50, 25) == 2 * h[25] - h[50]
        assert expected_time_cyclic(50, 25) == pytest.approx(3.1327110171775887, rel=1e-15)

    def test_degenerate_shapes(self):
        # one group of N workers: plain maximum
        assert expected_time_cyclic_rational(6, 6) == _harmonics(6)[6]
        # N singleton groups: plain minimum
        assert expected_time_cyclic_rational(6, 1) == Fraction(1, 6)

    def test_matches_structure_oracle_exactly(self):
        shapes = [(4, 2), (6, 2), (6, 3), (8, 4), (9, 3), (10, 5), (12, 4), (12, 6),
                  (50, 5), (50, 10), (50, 25)]
        for n, b in shapes:
            _, structure = cyclic_layout(n, b)
            assert expected_time_cyclic_rational(n, b) == expected_time_structure_rational(
                structure, n
            ), (n, b)
        relabelled = _relabelled_cyclic(50, 5, seed=50)
        assert expected_time_structure_rational(relabelled, 50) == expected_time_cyclic_rational(
            50, 5
        )

    def test_matches_harmonic_sum(self):
        # the closed form sum_j (-1)^(j+1) C(G, j) H_{jB}, term by term; the
        # residue-class products take one math.prod up to G = 64 and a product
        # tree past it
        h = _harmonics(4000)
        shapes = [(6, 3), (12, 4), (30, 5), (40, 8), (7, 7), (9, 1), (60, 20),
                  (99, 33), (130, 65), (2000, 1000), (1800, 20), (2000, 1), (2000, 2000),
                  (4000, 4)]
        for n, b in shapes:
            g = n // b
            direct = sum(
                (-1) ** (j + 1) * math.comb(g, j) * h[j * b] for j in range(1, g + 1)
            )
            assert expected_time_cyclic_rational(n, b) == direct, (n, b)

    def test_divisibility_required(self):
        with pytest.raises(DomainError):
            expected_time_cyclic_rational(10, 3)

    def test_size_guard(self, monkeypatch):
        """Refused past N = 10^5 workers or G = N/B = 10^4 groups, before any work."""
        assert analytics._MAX_CYCLIC_GROUPS == 10**4
        for n, b in ((10**5, 1), (10**4 + 1, 1), (100_010, 10), (4 * 10**5, 100)):
            start = time.perf_counter()
            with pytest.raises(ComplexityGuardError, match=(
                rf"^cyclic layout over N={n} workers in G={n // b} groups exceeds the "
                r"N <= 100000 and G <= 10000 guard; estimate by Monte Carlo instead$"
            )):
                expected_time_cyclic_rational(n, b)
            assert time.perf_counter() - start < 0.1
        # G at its bound: the minimum of 10^4 exponentials
        assert expected_time_cyclic_rational(10**4, 1) == Fraction(1, 10**4)
        # both bounds are inclusive
        want = expected_time_cyclic_rational(12, 4)
        monkeypatch.setattr(analytics, "_MAX_HARMONIC_TERMS", 12)
        monkeypatch.setattr(analytics, "_MAX_CYCLIC_GROUPS", 3)
        assert expected_time_cyclic_rational(12, 4) == want
        for n, b in ((14, 7), (12, 3)):
            with pytest.raises(ComplexityGuardError):
                expected_time_cyclic_rational(n, b)

    def test_memory_bounded(self, traced_peak):
        # B products of G = 10^4 factors, not G binomials of up to G bits
        assert traced_peak(lambda: expected_time_cyclic_rational(20000, 2)) < 2**20

    def test_rate_scaling_exact_in_float(self):
        base = expected_time_cyclic(12, 4)
        for rate in (0.5, 2.0, 9.1):
            assert expected_time_cyclic(12, 4, rate) == base / rate


class TestStructureOracle:
    def test_subset_counts_cyclic(self):
        _, structure = cyclic_layout(6, 3)
        assert incomplete_subset_counts(structure, 6) == (1, 6, 15, 18, 9, 0, 0)
        # a repeated group counts once
        repeated = [*structure.groups, {0, 2, 4}]
        assert incomplete_subset_counts(repeated, 6) == (1, 6, 15, 18, 9, 0, 0)

    def test_subset_counts_shared_pair(self):
        _, structure = shared_pair_layout()
        assert incomplete_subset_counts(structure, 6) == (1, 6, 15, 16, 5, 0, 0)

    def test_subset_counts_replicated(self):
        _, structure = replicated_nonoverlap_layout(6, 3)
        assert incomplete_subset_counts(structure, 6) == (1, 6, 15, 12, 3, 0, 0)

    @pytest.mark.parametrize("b", [2, 3, 4, 6, 8, 12])
    def test_cyclic_n24_matches_generating_polynomial(self, b):
        expected = _cyclic_counts(24, b)
        _, structure = cyclic_layout(24, b)
        assert incomplete_subset_counts(structure, 24) == expected
        assert incomplete_subset_counts(_relabelled_cyclic(24, b, seed=b), 24) == expected

    @pytest.mark.parametrize("n,b", [(12, 3), (16, 4), (20, 2), (24, 4)])
    def test_replicated_matches_vector_polynomial(self, n, b):
        _, structure = replicated_nonoverlap_layout(n, b)
        expected = _vector_counts([n // b] * b)
        assert incomplete_subset_counts(structure, n) == expected

    @pytest.mark.parametrize("n,shape", _SPLIT_CASES)
    def test_matches_full_mask_enumeration(self, n, shape):
        groups = _SPLIT_SHAPES[shape](n)
        assert incomplete_subset_counts(groups, n) == _full_mask_counts(groups, n)

    def test_memory_bounded_on_relabelled_cyclic_n24(self, traced_peak):
        groups = _relabelled_cyclic(24, 4, seed=11)
        assert traced_peak(lambda: incomplete_subset_counts(groups, 24)) < 16 * 2**20

    def test_memory_bounded_on_many_groups(self, traced_peak):
        _, structure = replicated_nonoverlap_layout(16, 4)
        assert len(structure.groups) == 256
        assert traced_peak(lambda: incomplete_subset_counts(structure, 16)) < 16 * 2**20

    def test_memory_bounded_on_many_groups_n24(self, traced_peak):
        _, structure = replicated_nonoverlap_layout(24, 4)
        assert len(structure.groups) == 1296
        assert traced_peak(lambda: incomplete_subset_counts(structure, 24)) < 16 * 2**20

    def test_every_three_worker_group_at_n24(self):
        groups = [set(c) for c in itertools.combinations(range(24), 3)]
        expected = tuple(math.comb(24, k) if k < 3 else 0 for k in range(25))
        assert incomplete_subset_counts(groups, 24) == expected

    def test_counts_low_orders_are_binomial(self):
        # no group fits inside fewer workers than the smallest group size
        _, structure = cyclic_layout(8, 4)
        a = incomplete_subset_counts(structure, 8)
        smallest = min(len(g) for g in structure.groups)
        for k in range(smallest):
            assert a[k] == math.comb(8, k)
        assert a[8] == 0

    def test_expected_times_trio(self):
        _, cyc = cyclic_layout(6, 3)
        _, shared = shared_pair_layout()
        _, repl = replicated_nonoverlap_layout(6, 3)
        assert expected_time_structure_rational(cyc, 6) == Fraction(73, 60)
        assert expected_time_structure_rational(shared, 6) == Fraction(21, 20)
        assert expected_time_structure_rational(repl, 6) == Fraction(11, 12)

    def test_trio_ordering_is_strict(self):
        _, cyc = cyclic_layout(6, 3)
        _, shared = shared_pair_layout()
        _, repl = replicated_nonoverlap_layout(6, 3)
        t_cyc = expected_time_structure_rational(cyc, 6)
        t_shared = expected_time_structure_rational(shared, 6)
        t_repl = expected_time_structure_rational(repl, 6)
        assert t_repl < t_shared < t_cyc

    def test_single_group_is_maximum(self):
        assert expected_time_structure_rational([{0, 1, 2, 3}], 4) == harmonic(4)

    def test_singleton_groups_are_minimum(self):
        groups = [{i} for i in range(5)]
        assert expected_time_structure_rational(groups, 5) == Fraction(1, 5)

    def test_idle_workers_slow_nothing(self):
        # workers outside every group never matter
        groups = [{0, 1}, {2, 3}]
        assert expected_time_structure_rational(groups, 4) == expected_time_structure_rational(
            groups, 6
        )

    def test_worker_guard(self):
        groups = [{i} for i in range(MAX_STRUCTURE_WORKERS + 1)]
        with pytest.raises(ComplexityGuardError):
            incomplete_subset_counts(groups, MAX_STRUCTURE_WORKERS + 1)

    def test_few_groups_past_24_workers(self):
        """Past N = 24, fewer than 16 distinct groups are counted up to N = 64."""
        for n, b in ((25, 5), (50, 5), (60, 4), (64, 8), (64, 64)):
            _, structure = cyclic_layout(n, b)
            assert incomplete_subset_counts(structure, n) == _cyclic_counts(n, b), (n, b)
        # 21 idle workers multiply by (1 + x)^21
        idle = _poly_mul(_cyclic_counts(4, 2)[:3], _binomial_poly(21))
        assert incomplete_subset_counts([{0, 1}, {2, 3}], 25) == tuple(idle) + (0, 0)
        guard = (r"^subset enumeration over (25|65) workers exceeds the N <= 24 guard \(N <= 64 "
                 r"with fewer than 16 distinct groups\); estimate by Monte Carlo instead$")
        for groups, n in (([{0, 1}, {2, 64}], 65), ([{i, i + 1} for i in range(16)], 25)):
            with pytest.raises(ComplexityGuardError, match=guard):
                incomplete_subset_counts(groups, n)

    def test_out_of_range_worker_rejected(self):
        with pytest.raises(DomainError):
            incomplete_subset_counts([{0, 7}], 4)

    def test_rate_scaling_exact_in_float(self):
        _, structure = cyclic_layout(6, 3)
        base = exact_expected_time_structure(structure, 6)
        for rate in (0.5, 2.0, 4.4):
            assert exact_expected_time_structure(structure, 6, rate) == base / rate


class TestSubsetRoutes:
    @pytest.mark.parametrize("n,g", _ROUTE_CASES)
    def test_both_routes_match_full_mask_enumeration(self, n, g):
        masks = _random_masks(n, g, seed=100 * n + g)
        expected = _full_mask_counts(_mask_groups(masks), n)
        assert analytics._subset_counts_by_union(masks, n) == expected
        assert analytics._subset_counts_by_closure(masks, n) == expected

    @pytest.mark.parametrize("n,g", [case for case in _ROUTE_CASES if case[1] > 0])
    def test_route_chosen_by_distinct_groups(self, n, g, monkeypatch):
        masks = _random_masks(n, g, seed=100 * n + g)
        groups = _mask_groups(masks)
        called = []
        for name in ("_subset_counts_by_union", "_subset_counts_by_closure"):

            def spy(m, k, route=getattr(analytics, name), name=name):
                called.append(name)
                return route(m, k)

            monkeypatch.setattr(analytics, name, spy)
        # a repeated group is one distinct group
        a = incomplete_subset_counts([*groups, groups[-1]], n)
        assert a == _full_mask_counts(groups, n)
        union = g < min(n, 16)
        assert called == ["_subset_counts_by_union" if union else "_subset_counts_by_closure"]

    @pytest.mark.parametrize("b", [2, 3, 4, 6, 8, 12])
    def test_union_route_on_cyclic_n24(self, b):
        expected = _cyclic_counts(24, b)
        for groups in (cyclic_layout(24, b)[1].groups, _relabelled_cyclic(24, b, seed=b)):
            masks = {sum(1 << w for w in g) for g in groups}
            assert analytics._subset_counts_by_union(masks, 24) == expected


class TestVectorStructureEquivalence:
    """A replica-count vector and its one-replica-per-batch group expansion
    describe the same completion time; the two formulas must agree exactly."""

    @pytest.mark.parametrize("counts", [(2, 2), (2, 2, 2), (3, 2, 1), (1, 1, 1, 1), (4, 2)])
    def test_exact_agreement(self, counts):
        groups = _product_groups(counts)
        assert expected_time_assignment_rational(counts) == expected_time_structure_rational(
            groups, sum(counts)
        )


class TestOrderingHelpers:
    def test_rearranged(self):
        assert rearranged((1, 3, 2)) == (3, 2, 1)
        assert rearranged([5]) == (5,)
        # entries are counts: the one non-negative-integer rule applies
        with pytest.raises(DomainError):
            rearranged((2, -1))

    def test_majorizes_examples(self):
        assert majorizes((3, 2, 1), (2, 2, 2))
        assert not majorizes((2, 2, 2), (3, 2, 1))
        assert majorizes((2, 2, 2), (2, 2, 2))
        assert majorizes((4, 1, 1), (3, 2, 1))
        assert not majorizes((3, 3, 0), (4, 1, 1))
        assert not majorizes((4, 1, 1), (3, 3, 0))

    def test_majorizes_requires_equal_sums(self):
        assert not majorizes((3, 1), (2, 1))
        assert not majorizes((2, 1), (3, 1))

    def test_majorizes_length_mismatch(self):
        with pytest.raises(DomainError):
            majorizes((3, 2, 1), (3, 3))


class TestMajorizationDominance:
    """Expected completion time is monotone along the majorization order, and
    the balanced vector is the strict unique minimum. Checked exhaustively
    over all compositions for small systems, in exact arithmetic."""

    @pytest.mark.parametrize("n,b", [(6, 3), (8, 4), (10, 5), (9, 3), (10, 2)])
    def test_exhaustive_small_systems(self, n, b):
        comps = list(_compositions(n, b))
        values = {c: expected_time_assignment_rational(c) for c in comps}
        balanced = (n // b,) * b
        for v in comps:
            for w in comps:
                if majorizes(w, v) and rearranged(v) != rearranged(w):
                    assert values[v] < values[w], (v, w)
        for v in comps:
            if rearranged(v) != balanced:
                assert values[balanced] < values[v], v

    def test_value_depends_only_on_multiset(self):
        assert expected_time_assignment_rational((1, 2, 3)) == expected_time_assignment_rational(
            (3, 2, 1)
        )

    @pytest.mark.parametrize("pair", [((2, 2, 2), (3, 2, 1)), ((3, 2, 1), (4, 1, 1)), ((3, 3), (5, 1))])
    def test_stochastic_dominance_on_grid(self, pair):
        lo, hi = pair
        assert majorizes(hi, lo)
        for t in (0.05, 0.1, 0.5, 1.0, 2.0, 5.0):
            assert _survival_nonoverlap(lo, t) <= _survival_nonoverlap(hi, t) + 1e-12
