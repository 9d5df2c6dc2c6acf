"""Policy constructors: literal layouts, invariants, and payload validation."""

import itertools
import re
from fractions import Fraction

import pytest

from batchlat.analytics import (
    exact_expected_time_structure,
    expected_time_assignment,
    expected_time_balanced,
    expected_time_balanced_rational,
    expected_time_cyclic,
    expected_time_cyclic_rational,
    expected_time_structure_rational,
    harmonic,
)
from batchlat.model import (
    AssignmentVector,
    BatchLayout,
    ComplexityGuardError,
    DomainError,
    NonDivisibleError,
    NonPositiveError,
    SystemParams,
)
from batchlat.policies import (
    MAX_REPLICATED_GROUPS,
    PolicyKind,
    PolicySpec,
    balanced_assignment,
    cyclic_layout,
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
        assert len(layout.batches) == n
        assert len(layout.batches[0]) == size
        assert sum(0 in batch for batch in layout.batches) == size
        assert len(structure.groups) == size
        # groups partition the workers
        seen = set()
        for g in structure.groups:
            assert len(g) == b
            assert not (g & seen)
            seen |= g
        assert seen == set(range(n))

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
        assert len(layout.batches) == 6
        assert len(layout.batches[0]) == 2
        assert layout.batches[4] == layout.batches[5] == frozenset({4, 5})
        assert structure.groups == (
            frozenset({0, 2, 4}),
            frozenset({0, 2, 5}),
            frozenset({1, 3, 4}),
            frozenset({1, 3, 5}),
        )

    def test_groups_tile_the_blocks(self):
        _, structure = shared_pair_layout()
        assert frozenset().union(*structure.groups) == frozenset(range(6))
        assert frozenset(range(6)) - frozenset().union(*structure.groups) == frozenset()

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
        assert len(structure.groups) == 8
        for g in structure.groups:
            assert len(g) == 3
            assert {w // 2 for w in g} == {0, 1, 2}

    def test_matches_balanced_value(self):
        _, structure = replicated_nonoverlap_layout(6, 3)
        assert expected_time_structure_rational(structure, 6) == Fraction(11, 12)

    def test_no_replication_collapses_to_single_group(self):
        layout, structure = replicated_nonoverlap_layout(6, 6)
        assert structure.groups == (frozenset(range(6)),)
        assert expected_time_structure_rational(structure, 6) == harmonic(6)
        assert sum(0 in batch for batch in layout.batches) == 1

    def test_group_count_guard(self):
        # 2^25 picks
        with pytest.raises(ComplexityGuardError):
            replicated_nonoverlap_layout(50, 25)
        assert 2**25 > MAX_REPLICATED_GROUPS

    def test_group_count_guard_builds_nothing(self, traced_peak):
        # building the 2000 batches of 1000 workers first took 116 MiB traced
        def refuse():
            with pytest.raises(ComplexityGuardError, match=(
                r"^replicated layout would need 1000000 recovery groups \(> 4096\); "
                "use the balanced AssignmentVector instead$"
            )):
                replicated_nonoverlap_layout(2000, 2)

        assert traced_peak(refuse) < 2**20

    def test_nondivisible_rejected(self):
        with pytest.raises(NonDivisibleError):
            replicated_nonoverlap_layout(10, 4)


@pytest.mark.parametrize("route, layout", [
    (balanced_assignment, "balanced assignment"),
    (expected_time_balanced_rational, "balanced assignment"),
    (expected_time_balanced, "balanced assignment"),
    (cyclic_layout, "cyclic layout"),
    (expected_time_cyclic_rational, "cyclic layout"),
    (expected_time_cyclic, "cyclic layout"),
    (replicated_nonoverlap_layout, "replicated layout"),
], ids=lambda v: getattr(v, "__name__", None))
def test_b_divides_n_rule(route, layout):
    """Every layout that gives each batch N/B workers refuses B not dividing N
    in one wording, after both counts are found positive, n_workers first."""
    with pytest.raises(NonDivisibleError, match=f"^{layout} needs n_batches=4 dividing n_workers=6$"):
        route(6, 4)
    with pytest.raises(NonPositiveError, match="^n_workers must be positive, got -6$"):
        route(-6, 0)
    with pytest.raises(NonPositiveError, match="^n_batches must be positive, got -4$"):
        route(6, -4)


def _exact_covers(layout: BatchLayout) -> set[frozenset[int]]:
    """Every set of workers whose batches partition the block set, by brute
    force over all worker subsets."""
    blocks = frozenset(range(layout.n_blocks))
    covers = set()
    n_workers = len(layout.batches)
    for r in range(1, n_workers + 1):
        for workers in itertools.combinations(range(n_workers), r):
            batches = [layout.batches[w] for w in workers]
            # sizes summing to S and a union of all S blocks: a partition
            if sum(map(len, batches)) == len(blocks) and frozenset().union(*batches) == blocks:
                covers.add(frozenset(workers))
    return covers


class TestExactCovers:
    """A constructor's recovery groups are exactly its layout's exact covers:
    the job ends once every block is held by disjoint finished batches."""

    @pytest.mark.parametrize("n, b", [
        (4, 2), (6, 1), (6, 2), (6, 3), (6, 6), (8, 4), (9, 3), (10, 5), (12, 3), (12, 4), (12, 6)
    ])
    def test_cyclic(self, n, b):
        layout, structure = cyclic_layout(n, b)
        assert _exact_covers(layout) == set(structure.groups)

    def test_shared_pair(self):
        layout, structure = shared_pair_layout()
        assert _exact_covers(layout) == set(structure.groups)

    @pytest.mark.parametrize("n, b", [(6, 3), (8, 4), (9, 3), (12, 4)])
    def test_replicated(self, n, b):
        layout, structure = replicated_nonoverlap_layout(n, b)
        assert _exact_covers(layout) == set(structure.groups)

    def test_layout_without_cover(self):
        # two disjoint triangles: odd vertex sets admit no disjoint pair cover
        batches = ({0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}, {5, 3})
        assert _exact_covers(BatchLayout(batches, n_blocks=6)) == set()


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


_VECTOR = PolicySpec(PolicyKind.EXPLICIT_VECTOR, vector=(3, 2, 1))
_STRUCTURE = PolicySpec(PolicyKind.EXPLICIT_STRUCTURE, groups=({0, 2, 4}, {1, 3, 5}))


class TestSystem:
    """PolicySpec.system fills in the sizes a policy fixes and picks S; the
    sizes that contradict the policy pass through it and ``resolve`` refuses them."""

    @pytest.mark.parametrize("spec, given, system", [
        (PolicySpec(PolicyKind.BALANCED), (6, 3), (6, 3, 3)),
        (PolicySpec(PolicyKind.BALANCED), (10, 4), (10, 4, 4)),
        (_VECTOR, (None, None), (6, 3, 3)),
        (_VECTOR, (6, 3), (6, 3, 3)),
        (PolicySpec(PolicyKind.RANDOM_CC), (12, 3), (12, 3, 3)),
        (PolicySpec(PolicyKind.CYCLIC), (12, 4), (12, 12, 4)),
        (PolicySpec(PolicyKind.GROUPED_OVERLAP), (None, None), (6, 6, 3)),
        (PolicySpec(PolicyKind.GROUPED_OVERLAP), (6, 3), (6, 6, 3)),
        (_STRUCTURE, (6, None), (6, 6, 1)),
        (_STRUCTURE, (6, 3), (6, 6, 3)),
    ], ids=lambda v: v.kind.value if isinstance(v, PolicySpec) else None)
    def test_sizes_and_blocks(self, spec, given, system):
        assert spec.system(*given) == SystemParams(*system)

    @pytest.mark.parametrize("spec, given, needed", [
        (_STRUCTURE, (None, None), "n_workers is"),
        (_STRUCTURE, (None, 1), "n_workers is"),
        (PolicySpec(PolicyKind.BALANCED), (6, None), "n_workers and n_batches are"),
        (PolicySpec(PolicyKind.RANDOM_CC), (None, 3), "n_workers and n_batches are"),
        (PolicySpec(PolicyKind.CYCLIC), (None, None), "n_workers and n_batches are"),
    ], ids=lambda v: v.kind.value if isinstance(v, PolicySpec) else None)
    def test_missing_size_refused(self, spec, given, needed):
        with pytest.raises(DomainError, match=f"^{needed} required for {spec.kind.value}$"):
            spec.system(*given)

    @pytest.mark.parametrize("spec, given, error, message", [
        (_VECTOR, (7, None), DomainError, "vector assigns 6 workers but the system has 7"),
        (_VECTOR, (None, 2), DomainError, "vector has 3 entries but the system has 2 batches"),
        (PolicySpec(PolicyKind.GROUPED_OVERLAP), (7, None), NonDivisibleError,
         "n_batches=3 must divide n_blocks=7"),
        (PolicySpec(PolicyKind.GROUPED_OVERLAP), (12, 4), DomainError,
         "the grouped-overlap policy is a fixed six-worker, three-batch instance"),
        (_STRUCTURE, (7, 2), NonDivisibleError, "n_batches=2 must divide n_blocks=7"),
    ], ids=["vector-total", "vector-length", "grouped-overlap-7-3", "grouped-overlap-12-4",
            "structure-b-not-dividing-n"])
    def test_contradicting_size_refused_by_resolve(self, spec, given, error, message):
        system = spec.system(*given)
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            resolve(spec, system)


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

    @pytest.mark.parametrize("n, b", [(6, 3), (12, 4), (50, 5), (50, 25)])
    def test_cyclic_groups_match_the_layout(self, n, b):
        plan = resolve(PolicySpec(PolicyKind.CYCLIC), SystemParams(n, n, b))
        assert plan.groups() == cyclic_layout(n, b)[1].groups

    def test_refuses_other_types(self):
        with pytest.raises(DomainError, match="^expected a PolicySpec, got 'cyclic'$"):
            resolve("cyclic", SystemParams(6, 6, 3))
        with pytest.raises(DomainError, match=r"^expected SystemParams, got \(6, 6, 3\)$"):
            resolve(PolicySpec(PolicyKind.CYCLIC), (6, 6, 3))

    def test_validates_before_resolving(self):
        with pytest.raises(DomainError):
            resolve(PolicySpec(PolicyKind.GROUPED_OVERLAP), SystemParams(8, 8, 4))
