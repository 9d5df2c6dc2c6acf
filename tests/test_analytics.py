"""Closed forms checked against independent brute-force and numeric oracles.

Every expected-value routine here has at least two routes to the same number:
the production code path and an in-test oracle that shares no code with it
(direct subset enumeration, surjection counting, or numeric quadrature).
"""

import itertools
import math
from fractions import Fraction

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
    is_balanced_minimal,
    majorizes,
    rearranged,
    stirling2,
    stirling2_alternating,
)
from batchlat.model import (
    AssignmentVector,
    ComplexityGuardError,
    DomainError,
    UncoveredBatchError,
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


# ---------------------------------------------------------------------------

class TestHarmonic:
    def test_small_values(self):
        assert harmonic(1) == 1
        assert harmonic(2) == Fraction(3, 2)
        assert harmonic(3) == Fraction(11, 6)
        assert harmonic(6) == Fraction(49, 20)

    def test_matches_direct_sum(self):
        for n in (4, 10, 37):
            assert harmonic(n) == sum(Fraction(1, k) for k in range(1, n + 1))

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            harmonic(0)


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
                assert stirling2(n, k) == stirling2_alternating(n, k), (n, k)

    def test_rejects_negative(self):
        with pytest.raises(DomainError):
            stirling2(-1, 2)
        with pytest.raises(DomainError):
            stirling2_alternating(3, -2)


class TestExactProbability:
    def test_normalization(self):
        p = ExactProbability(540, 729)
        assert (p.numerator, p.denominator) == (20, 27)
        assert p.float_value == 20 / 27

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


class TestBalanced:
    def test_known_value(self):
        assert expected_time_balanced_rational(6, 3) == Fraction(11, 12)
        assert expected_time_balanced(6, 3) == 11 / 12

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


class TestAssignment:
    def test_known_values(self):
        assert expected_time_assignment_rational((3, 2, 1)) == Fraction(73, 60)
        assert expected_time_assignment_rational((4, 1, 1)) == Fraction(91, 60)
        assert expected_time_assignment_rational((2, 2, 2)) == Fraction(11, 12)
        assert expected_time_assignment_rational((1,)) == 1

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
        with pytest.raises(UncoveredBatchError):
            expected_time_assignment_rational((2, 0, 4))

    def test_float_is_correctly_rounded(self):
        # one rounding of the exact rational, also where the alternating sum
        # cancels hardest: 25 batches, and 4000 workers over 25 batches
        for v in [(2,) * 25, *_proportional_vectors(4000, 25)]:
            assert expected_time_assignment(v) == float(expected_time_assignment_rational(v)), v

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
        # guard fires before the coverage check
        with pytest.raises(ComplexityGuardError):
            expected_time_assignment_rational((0, MAX_BATCH_WORKER_PRODUCT))

    def test_at_guard_limit_still_works(self, monkeypatch):
        monkeypatch.setattr(analytics, "MAX_BATCH_WORKER_PRODUCT", 5 * 10)
        got = expected_time_assignment_rational((2,) * 5)
        assert got == expected_time_balanced_rational(10, 5)
        with pytest.raises(ComplexityGuardError):
            expected_time_assignment_rational((2,) * 4 + (3,))


class TestCyclic:
    def test_known_values(self):
        assert expected_time_cyclic_rational(6, 3) == Fraction(73, 60)
        assert expected_time_cyclic_rational(50, 25) == 2 * harmonic(25) - harmonic(50)
        assert expected_time_cyclic(50, 25) == pytest.approx(3.1327110171775887, rel=1e-15)

    def test_degenerate_shapes(self):
        # one group of N workers: plain maximum
        assert expected_time_cyclic_rational(6, 6) == harmonic(6)
        # N singleton groups: plain minimum
        assert expected_time_cyclic_rational(6, 1) == Fraction(1, 6)

    def test_matches_structure_oracle_exactly(self):
        for n, b in [(4, 2), (6, 2), (6, 3), (8, 4), (9, 3), (10, 5), (12, 4), (12, 6)]:
            _, structure = cyclic_layout(n, b)
            assert expected_time_cyclic_rational(n, b) == expected_time_structure_rational(
                structure, n
            ), (n, b)

    def test_matches_harmonic_sum(self):
        # the closed form with each H_{jB} rebuilt from scratch
        for n, b in [(6, 3), (12, 4), (30, 5), (40, 8), (7, 7), (9, 1), (60, 20)]:
            g = n // b
            direct = sum(
                (-1) ** (j + 1) * math.comb(g, j) * harmonic(j * b) for j in range(1, g + 1)
            )
            assert expected_time_cyclic_rational(n, b) == direct, (n, b)

    def test_divisibility_required(self):
        with pytest.raises(DomainError):
            expected_time_cyclic_rational(10, 3)

    def test_rate_scaling_exact_in_float(self):
        base = expected_time_cyclic(12, 4)
        for rate in (0.5, 2.0, 9.1):
            assert expected_time_cyclic(12, 4, rate) == base / rate


class TestStructureOracle:
    def test_subset_counts_cyclic(self):
        _, structure = cyclic_layout(6, 3)
        assert incomplete_subset_counts(structure, 6) == (1, 6, 15, 18, 9, 0, 0)

    def test_subset_counts_shared_pair(self):
        _, structure = shared_pair_layout()
        assert incomplete_subset_counts(structure, 6) == (1, 6, 15, 16, 5, 0, 0)

    def test_subset_counts_replicated(self):
        _, structure = replicated_nonoverlap_layout(6, 3)
        assert incomplete_subset_counts(structure, 6) == (1, 6, 15, 12, 3, 0, 0)

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

    def test_out_of_range_worker_rejected(self):
        with pytest.raises(DomainError):
            incomplete_subset_counts([{0, 7}], 4)

    def test_rate_scaling_exact_in_float(self):
        _, structure = cyclic_layout(6, 3)
        base = exact_expected_time_structure(structure, 6)
        for rate in (0.5, 2.0, 4.4):
            assert exact_expected_time_structure(structure, 6, rate) == base / rate


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

    def test_is_balanced_minimal(self):
        assert is_balanced_minimal((2, 2, 2))
        assert is_balanced_minimal((1,))
        assert not is_balanced_minimal((3, 2, 1))
        assert not is_balanced_minimal((0, 0))


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
