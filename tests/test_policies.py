"""Policy constructors: literal layouts, invariants, and payload validation."""

import math
from fractions import Fraction

import numpy as np
import pytest

from batchlat.analytics import (
    coverage_probability,
    exact_expected_time_structure,
    expected_time_assignment,
    expected_time_balanced,
    expected_time_cyclic,
    expected_time_structure_rational,
    harmonic,
)
from batchlat.model import (
    AssignmentVector,
    ComplexityGuardError,
    DomainError,
    NonDivisibleError,
    SystemParams,
)
from batchlat.policies import (
    MAX_REPLICATED_GROUPS,
    PolicyKind,
    PolicySpec,
    balanced_assignment,
    cyclic_layout,
    random_cc_assignment,
    replicated_nonoverlap_layout,
    resolve,
    shared_pair_layout,
    validate_policy,
)


class TestBalancedAssignment:
    def test_examples(self):
        assert balanced_assignment(6, 3).counts == (2, 2, 2)
        assert balanced_assignment(5, 5).counts == (1, 1, 1, 1, 1)
        assert balanced_assignment(50, 25).counts == (2,) * 25

    def test_nondivisible_rejected(self):
        with pytest.raises(NonDivisibleError):
            balanced_assignment(7, 3)


class TestCyclicLayout:
    def test_literal_six_three(self):
        layout, structure = cyclic_layout(6, 3)
        assert layout.batches == (
            frozenset({0, 1}),
            frozenset({1, 2}),
            frozenset({2, 3}),
            frozenset({3, 4}),
            frozenset({4, 5}),
            frozenset({5, 0}),
        )
        assert structure.groups == (frozenset({0, 2, 4}), frozenset({1, 3, 5}))

    @pytest.mark.parametrize("n,b", [(4, 2), (6, 2), (6, 3), (8, 4), (9, 3), (10, 5), (12, 4), (12, 6)])
    def test_invariants(self, n, b):
        layout, structure = cyclic_layout(n, b)
        size = n // b
        assert layout.n_workers == n
        assert layout.batch_size == size
        assert layout.replication == size
        assert structure.n_groups == size
        # groups partition the workers
        seen = set()
        for g in structure.groups:
            assert len(g) == b
            assert not (g & seen)
            seen |= g
        assert seen == set(range(n))
        structure.validate_partitions(layout)

    @pytest.mark.parametrize("n,b", [(4, 2), (6, 2), (6, 3), (8, 4), (9, 3), (10, 5), (12, 4), (12, 6)])
    def test_each_batch_overlaps_exactly_its_window_neighbours(self, n, b):
        layout, _ = cyclic_layout(n, b)
        size = n // b
        for w in range(n):
            others = sum(
                1
                for u in range(n)
                if u != w and layout.batches[u] & layout.batches[w]
            )
            assert others == 2 * (size - 1), w

    def test_nondivisible_rejected(self):
        with pytest.raises(NonDivisibleError):
            cyclic_layout(10, 3)


class TestSharedPairLayout:
    def test_literal(self):
        layout, structure = shared_pair_layout()
        assert layout.n_workers == 6
        assert layout.batch_size == 2
        assert layout.batches[4] == layout.batches[5] == frozenset({4, 5})
        assert structure.groups == (
            frozenset({0, 2, 4}),
            frozenset({0, 2, 5}),
            frozenset({1, 3, 4}),
            frozenset({1, 3, 5}),
        )

    def test_groups_tile_the_blocks(self):
        layout, structure = shared_pair_layout()
        structure.validate_partitions(layout)
        assert structure.workers() == frozenset(range(6))
        assert structure.unused_workers(6) == frozenset()

    def test_expected_time(self):
        _, structure = shared_pair_layout()
        assert expected_time_structure_rational(structure, 6) == Fraction(21, 20)


class TestReplicatedLayout:
    def test_six_three(self):
        layout, structure = replicated_nonoverlap_layout(6, 3)
        assert layout.batches == (
            frozenset({0, 1}),
            frozenset({0, 1}),
            frozenset({2, 3}),
            frozenset({2, 3}),
            frozenset({4, 5}),
            frozenset({4, 5}),
        )
        assert structure.n_groups == 8
        for g in structure.groups:
            assert len(g) == 3
            assert {w // 2 for w in g} == {0, 1, 2}
        structure.validate_partitions(layout)

    def test_matches_balanced_value(self):
        _, structure = replicated_nonoverlap_layout(6, 3)
        assert expected_time_structure_rational(structure, 6) == Fraction(11, 12)

    def test_no_replication_collapses_to_single_group(self):
        layout, structure = replicated_nonoverlap_layout(6, 6)
        assert structure.groups == (frozenset(range(6)),)
        assert expected_time_structure_rational(structure, 6) == harmonic(6)
        assert layout.replication == 1

    def test_group_count_guard(self):
        # 2^25 picks
        with pytest.raises(ComplexityGuardError):
            replicated_nonoverlap_layout(50, 25)
        assert 2**25 > MAX_REPLICATED_GROUPS

    def test_nondivisible_rejected(self):
        with pytest.raises(NonDivisibleError):
            replicated_nonoverlap_layout(10, 4)


class TestRandomCcAssignment:
    def test_deterministic_under_seed(self):
        a = random_cc_assignment(20, 5, np.random.default_rng(7))
        b = random_cc_assignment(20, 5, np.random.default_rng(7))
        assert a == b
        assert sum(a.counts) == 20
        assert a.n_batches == 5

    def test_single_batch_gets_everyone(self):
        v = random_cc_assignment(9, 1, np.random.default_rng(0))
        assert v.counts == (9,)

    def test_two_by_two_frequencies(self):
        # counts (2,0), (1,1), (0,2) occur w.p. 1/4, 1/2, 1/4
        rng = np.random.default_rng(123)
        n = 40_000
        seen = {(2, 0): 0, (1, 1): 0, (0, 2): 0}
        for _ in range(n):
            seen[random_cc_assignment(2, 2, rng).counts] += 1
        for counts, p in [((2, 0), 0.25), ((1, 1), 0.5), ((0, 2), 0.25)]:
            sigma = math.sqrt(p * (1 - p) / n)
            assert abs(seen[counts] / n - p) < 4 * sigma, counts

    def test_mean_count_per_batch(self):
        rng = np.random.default_rng(11)
        n, b, draws = 6, 3, 20_000
        totals = np.zeros(b)
        for _ in range(draws):
            totals += random_cc_assignment(n, b, rng).counts
        # each worker lands on a batch w.p. 1/3; mean count 2, var 6*(1/3)(2/3)
        sigma = math.sqrt(n * (1 / b) * (1 - 1 / b) / draws)
        for mean in totals / draws:
            assert abs(mean - n / b) < 4 * sigma

    def test_coverage_fraction(self):
        rng = np.random.default_rng(42)
        draws = 20_000
        covered = sum(
            random_cc_assignment(6, 3, rng).covers_all_batches for _ in range(draws)
        )
        p = float(coverage_probability(3, 6))
        sigma = math.sqrt(p * (1 - p) / draws)
        assert abs(covered / draws - p) < 4 * sigma


class TestPolicySpec:
    def test_vector_payload(self):
        spec = PolicySpec(PolicyKind.EXPLICIT_VECTOR, vector=(3, 2, 1))
        assert spec.vector == (3, 2, 1)
        assert spec.kind is PolicyKind.EXPLICIT_VECTOR

    def test_kind_from_string(self):
        spec = PolicySpec("balanced")
        assert spec.kind is PolicyKind.BALANCED

    def test_unknown_kind(self):
        with pytest.raises(DomainError):
            PolicySpec("round-robin")

    def test_vector_required_for_explicit_vector(self):
        with pytest.raises(DomainError):
            PolicySpec(PolicyKind.EXPLICIT_VECTOR)

    def test_vector_forbidden_elsewhere(self):
        with pytest.raises(DomainError):
            PolicySpec(PolicyKind.BALANCED, vector=(2, 2))

    def test_groups_required_for_explicit_structure(self):
        with pytest.raises(DomainError):
            PolicySpec(PolicyKind.EXPLICIT_STRUCTURE)

    def test_groups_forbidden_elsewhere(self):
        with pytest.raises(DomainError):
            PolicySpec(PolicyKind.CYCLIC, groups=({0, 1},))

    def test_groups_normalized(self):
        spec = PolicySpec(PolicyKind.EXPLICIT_STRUCTURE, groups=([0, 2], [1, 3]))
        assert spec.groups == (frozenset({0, 2}), frozenset({1, 3}))


class TestValidatePolicy:
    def test_balanced_ok(self):
        validate_policy(PolicySpec(PolicyKind.BALANCED), SystemParams(6, 6, 3))

    def test_balanced_nondivisible(self):
        # batches divide the blocks but not the workers
        with pytest.raises(NonDivisibleError):
            validate_policy(PolicySpec(PolicyKind.BALANCED), SystemParams(10, 9, 3))
        # batches do not divide the blocks
        with pytest.raises(NonDivisibleError):
            validate_policy(PolicySpec(PolicyKind.BALANCED), SystemParams(10, 10, 4))

    def test_vector_shape_checked(self):
        spec = PolicySpec(PolicyKind.EXPLICIT_VECTOR, vector=(3, 2, 1))
        validate_policy(spec, SystemParams(6, 6, 3))
        with pytest.raises(DomainError):
            validate_policy(spec, SystemParams(6, 6, 2))
        with pytest.raises(DomainError):
            validate_policy(spec, SystemParams(7, 7, 7, 1.0))

    def test_cyclic_requires_overlapping_shape(self):
        validate_policy(PolicySpec(PolicyKind.CYCLIC), SystemParams(6, 6, 3))
        with pytest.raises(DomainError):
            validate_policy(PolicySpec(PolicyKind.CYCLIC), SystemParams(6, 12, 3))
        with pytest.raises(NonDivisibleError):
            validate_policy(PolicySpec(PolicyKind.CYCLIC), SystemParams(10, 10, 4))

    def test_grouped_overlap_is_fixed_instance(self):
        validate_policy(PolicySpec(PolicyKind.GROUPED_OVERLAP), SystemParams(6, 6, 3))
        with pytest.raises(DomainError):
            validate_policy(PolicySpec(PolicyKind.GROUPED_OVERLAP), SystemParams(8, 8, 4))

    def test_structure_worker_range(self):
        spec = PolicySpec(PolicyKind.EXPLICIT_STRUCTURE, groups=({0, 5},))
        validate_policy(spec, SystemParams(6, 6, 3))
        with pytest.raises(DomainError):
            validate_policy(spec, SystemParams(5, 5, 5))


# Each kind with the analytics closed form the CLI reported for it at
# N=6, B=3, rate 2; random-cc has none.
EXACT_CASES = [
    (PolicySpec(PolicyKind.BALANCED), lambda: expected_time_balanced(6, 3, 2.0)),
    (
        PolicySpec(PolicyKind.EXPLICIT_VECTOR, vector=(3, 2, 1)),
        lambda: expected_time_assignment((3, 2, 1), 2.0),
    ),
    (PolicySpec(PolicyKind.RANDOM_CC), lambda: None),
    (PolicySpec(PolicyKind.CYCLIC), lambda: expected_time_cyclic(6, 3, 2.0)),
    (
        PolicySpec(PolicyKind.GROUPED_OVERLAP),
        lambda: exact_expected_time_structure(shared_pair_layout()[1], 6, 2.0),
    ),
    (
        PolicySpec(PolicyKind.EXPLICIT_STRUCTURE, groups=({0, 2, 4}, {1, 3, 5})),
        lambda: exact_expected_time_structure([{0, 2, 4}, {1, 3, 5}], 6, 2.0),
    ),
]


class TestResolvers:
    def test_resolve_counts(self):
        params = SystemParams(6, 6, 3)
        assert resolve(PolicySpec(PolicyKind.BALANCED), params).counts == (2, 2, 2)
        spec = PolicySpec(PolicyKind.EXPLICIT_VECTOR, vector=(3, 2, 1))
        assert resolve(spec, params).counts == (3, 2, 1)
        assert resolve(PolicySpec(PolicyKind.CYCLIC), params).counts is None

    def test_resolve_groups(self):
        params = SystemParams(6, 6, 3)
        assert resolve(PolicySpec(PolicyKind.CYCLIC), params).groups() == (
            frozenset({0, 2, 4}),
            frozenset({1, 3, 5}),
        )
        assert len(resolve(PolicySpec(PolicyKind.GROUPED_OVERLAP), params).groups()) == 4
        spec = PolicySpec(PolicyKind.EXPLICIT_STRUCTURE, groups=({0, 1},))
        assert resolve(spec, params).groups() == (frozenset({0, 1}),)
        assert resolve(PolicySpec(PolicyKind.BALANCED), params).groups is None

    @pytest.mark.parametrize(
        "spec, closed_form", EXACT_CASES, ids=[spec.kind.value for spec, _ in EXACT_CASES]
    )
    def test_exact_matches_closed_form(self, spec, closed_form):
        plan = resolve(spec, SystemParams(6, 6, 3))
        expected = closed_form()
        if expected is None:
            assert plan.exact is None
        else:
            assert plan.exact(2.0) == expected

    def test_validates_before_resolving(self):
        with pytest.raises(DomainError):
            resolve(PolicySpec(PolicyKind.GROUPED_OVERLAP), SystemParams(8, 8, 4))
