"""Policy constructors: literal layouts, invariants, and payload validation."""

import itertools
import re
from collections import Counter
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
    ComplexityGuardError,
    DomainError,
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
        assert balanced_assignment(6, 3) == (2, 2, 2)
        assert balanced_assignment(5, 5) == (1, 1, 1, 1, 1)
        assert balanced_assignment(50, 25) == (2,) * 25

    def test_nondivisible_rejected(self):
        with pytest.raises(DomainError, match="^balanced assignment needs n_batches=3 dividing n_workers=7$"):
            balanced_assignment(7, 3)


class TestCyclicLayout:
    def test_literal_six_three(self):
        batches, structure = cyclic_layout(6, 3)
        assert batches == (
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
        batches, structure = cyclic_layout(n, b)
        size = n // b
        assert len(batches) == n
        assert len(batches[0]) == size
        assert sum(0 in batch for batch in batches) == size
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
        batches, _ = cyclic_layout(n, b)
        size = n // b
        for w in range(n):
            others = sum(
                1
                for u in range(n)
                if u != w and batches[u] & batches[w]
            )
            assert others == 2 * (size - 1), w

    def test_nondivisible_rejected(self):
        with pytest.raises(DomainError, match="^cyclic layout needs n_batches=3 dividing n_workers=10$"):
            cyclic_layout(10, 3)


class TestSharedPairLayout:
    def test_literal(self):
        batches, structure = shared_pair_layout()
        assert len(batches) == 6
        assert len(batches[0]) == 2
        assert batches[4] == batches[5] == frozenset({4, 5})
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
        batches, structure = replicated_nonoverlap_layout(6, 3)
        assert batches == (
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
        batches, structure = replicated_nonoverlap_layout(6, 6)
        assert structure.groups == (frozenset(range(6)),)
        assert expected_time_structure_rational(structure, 6) == harmonic(6)
        assert sum(0 in batch for batch in batches) == 1

    def test_group_count_guard(self):
        # 2^25 picks
        with pytest.raises(ComplexityGuardError):
            replicated_nonoverlap_layout(50, 25)
        assert 2**25 > MAX_REPLICATED_GROUPS

    @pytest.mark.parametrize("n,b", [(24, 6), (48, 3)])
    def test_group_count_guard_admits_exactly_the_limit(self, n, b):
        # 4^6 = 16^3 = 4096 groups
        _, structure = replicated_nonoverlap_layout(n, b)
        assert len(structure.groups) == MAX_REPLICATED_GROUPS == 4096

    def test_group_count_guard_refuses_past_the_limit(self):
        with pytest.raises(ComplexityGuardError, match=r"would need 17\^3 recovery groups"):
            replicated_nonoverlap_layout(51, 3)

    def test_group_count_guard_builds_nothing(self, traced_peak):
        # building the 2000 batches of 1000 workers first took 116 MiB traced
        def refuse():
            with pytest.raises(ComplexityGuardError, match=(
                r"^replicated layout would need 1000\^2 recovery groups \(> 4096\); "
                "use balanced_assignment instead$"
            )):
                replicated_nonoverlap_layout(2000, 2)

        assert traced_peak(refuse) < 2**20

    def test_group_count_guard_builds_no_power(self):
        # 2^15000 has 4516 digits, past the int-to-str limit of an error message
        with pytest.raises(ComplexityGuardError, match=r"^replicated layout would need 2\^15000 "):
            replicated_nonoverlap_layout(30000, 15000)

    def test_nondivisible_rejected(self):
        with pytest.raises(DomainError, match="^replicated layout needs n_batches=4 dividing n_workers=10$"):
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
    with pytest.raises(DomainError, match=f"^{layout} needs n_batches=4 dividing n_workers=6$"):
        route(6, 4)
    with pytest.raises(DomainError, match="^n_workers must be positive, got -6$"):
        route(-6, 0)
    with pytest.raises(DomainError, match="^n_batches must be positive, got -4$"):
        route(6, -4)


@pytest.mark.parametrize("layout, name", [
    (cyclic_layout, "cyclic layout"),
    (replicated_nonoverlap_layout, "replicated layout"),
], ids=["cyclic", "replicated"])
def test_window_id_guard(layout, name, traced_peak):
    """Both layouts build N windows of N/B block ids, refused past 2^20 ids
    before any window is built: 56 MiB traced at the bound itself."""
    assert len(layout(1024, 1)[0]) == 1024

    def refuse():
        with pytest.raises(ComplexityGuardError, match=(
            rf"^{name} would build 1025 windows of 1025 "
            r"block ids \(> 2\^20 in all\)$"
        )):
            layout(1025, 1)

    assert traced_peak(refuse) < 2**20


def _assert_uniform(batches, n_blocks: int) -> None:
    """Equal batch sizes, block ids in range(S), and every block held by
    N * size / S workers: the invariant each layout constructor keeps."""
    (size,) = {len(batch) for batch in batches}
    held = Counter(block for batch in batches for block in batch)
    assert held == dict.fromkeys(range(n_blocks), len(batches) * size // n_blocks)


def _exact_covers(batches, n_blocks: int) -> set[frozenset[int]]:
    """Every set of workers whose batches partition the S = ``n_blocks``
    blocks, by brute force over all worker subsets."""
    blocks = frozenset(range(n_blocks))
    covers = set()
    for r in range(1, len(batches) + 1):
        for workers in itertools.combinations(range(len(batches)), r):
            chosen = [batches[w] for w in workers]
            # sizes summing to S and a union of all S blocks: a partition
            if sum(map(len, chosen)) == n_blocks and frozenset().union(*chosen) == blocks:
                covers.add(frozenset(workers))
    return covers


class TestExactCovers:
    """A constructor's block sets are uniform, and its recovery groups are
    exactly their exact covers: the job ends once every block is held by
    disjoint finished batches."""

    @pytest.mark.parametrize("n, b", [
        (4, 2), (6, 1), (6, 2), (6, 3), (6, 6), (8, 4), (9, 3), (10, 5), (12, 3), (12, 4), (12, 6)
    ])
    def test_cyclic(self, n, b):
        batches, structure = cyclic_layout(n, b)
        _assert_uniform(batches, n)
        assert _exact_covers(batches, n) == set(structure.groups)

    def test_shared_pair(self):
        batches, structure = shared_pair_layout()
        _assert_uniform(batches, 6)
        assert _exact_covers(batches, 6) == set(structure.groups)

    @pytest.mark.parametrize("n, b", [(6, 3), (8, 4), (9, 3), (12, 4)])
    def test_replicated(self, n, b):
        batches, structure = replicated_nonoverlap_layout(n, b)
        _assert_uniform(batches, n)
        assert _exact_covers(batches, n) == set(structure.groups)

    def test_layout_without_cover(self):
        # two disjoint triangles: odd vertex sets admit no disjoint pair cover
        batches = ({0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}, {5, 3})
        assert _exact_covers(batches, 6) == set()


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

    @pytest.mark.parametrize("spec, given, message", [
        (_VECTOR, (7, None), "vector assigns 6 workers but the system has 7"),
        (_VECTOR, (None, 2), "vector has 3 entries but the system has 2 batches"),
        (PolicySpec(PolicyKind.GROUPED_OVERLAP), (7, None), "n_batches=3 must divide n_blocks=7"),
        (PolicySpec(PolicyKind.GROUPED_OVERLAP), (12, 4),
         "the grouped-overlap policy is a fixed six-worker, three-batch instance"),
    ], ids=["vector-total", "vector-length", "grouped-overlap-7-3", "grouped-overlap-12-4"])
    def test_contradicting_size_refused_by_resolve(self, spec, given, message):
        system = spec.system(*given)
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            resolve(spec, system)

    @pytest.mark.parametrize("given", [(7, 2), (4, 5)], ids=["b-not-dividing-n", "b-above-n"])
    def test_structure_takes_any_b(self, given):
        # the groups alone fix a structure's completion; its B only feeds reports
        spec = PolicySpec(PolicyKind.EXPLICIT_STRUCTURE, groups=({0, 1}, {2, 3}))
        plan = resolve(spec, spec.system(*given))
        assert plan.exact(1.0) == float(expected_time_cyclic_rational(4, 2)) == 11 / 12


def _case(name, kind, system, message=None, **payload):
    return pytest.param(PolicySpec(kind, **payload), system, message, id=name)


_OVERLAP_S_BELOW_N = "overlapping batching requires n_blocks == n_workers, got S=4, N=8"

# Every system shape check that resolve makes: (spec, system, the exact
# DomainError message, or None where the policy fits the system).
SHAPE_CASES = [
    _case("balanced-ok", PolicyKind.BALANCED, SystemParams(6, 6, 3)),
    # batches divide the blocks but not the workers, then not the blocks
    _case("balanced-b-not-dividing-n", PolicyKind.BALANCED, SystemParams(10, 9, 3),
          "balanced assignment needs n_batches=3 dividing n_workers=10"),
    _case("balanced-b-not-dividing-s-10", PolicyKind.BALANCED, SystemParams(10, 10, 4),
          "n_batches=4 must divide n_blocks=10"),
    _case("balanced-b-not-dividing-s-9", PolicyKind.BALANCED, SystemParams(10, 9, 2),
          "n_batches=2 must divide n_blocks=9"),
    # only the overlapping kinds need S = N
    _case("balanced-s-unlike-n-ok", PolicyKind.BALANCED, SystemParams(8, 4, 2)),
    _case("vector-ok", PolicyKind.EXPLICIT_VECTOR, SystemParams(6, 6, 3), vector=(3, 2, 1)),
    _case("vector-longer-than-b", PolicyKind.EXPLICIT_VECTOR, SystemParams(6, 6, 2),
          "vector has 3 entries but the system has 2 batches", vector=(3, 2, 1)),
    _case("vector-shorter-than-b", PolicyKind.EXPLICIT_VECTOR, SystemParams(7, 7, 7, 1.0),
          "vector has 3 entries but the system has 7 batches", vector=(3, 2, 1)),
    _case("cyclic-ok", PolicyKind.CYCLIC, SystemParams(6, 6, 3)),
    _case("cyclic-b-not-dividing-s-6", PolicyKind.CYCLIC, SystemParams(6, 6, 4),
          "n_batches=4 must divide n_blocks=6"),
    _case("cyclic-b-not-dividing-s-10", PolicyKind.CYCLIC, SystemParams(10, 10, 4),
          "n_batches=4 must divide n_blocks=10"),
    _case("cyclic-s-above-n", PolicyKind.CYCLIC, SystemParams(6, 12, 3),
          "overlapping batching requires n_blocks == n_workers, got S=12, N=6"),
    _case("cyclic-s-below-n", PolicyKind.CYCLIC, SystemParams(8, 4, 2), _OVERLAP_S_BELOW_N),
    # B | S is checked before S = N
    _case("cyclic-b-checked-before-s", PolicyKind.CYCLIC, SystemParams(6, 4, 3),
          "n_batches=3 must divide n_blocks=4"),
    _case("grouped-overlap-s-below-n", PolicyKind.GROUPED_OVERLAP, SystemParams(8, 4, 2),
          _OVERLAP_S_BELOW_N),
    _case("grouped-overlap-ok", PolicyKind.GROUPED_OVERLAP, SystemParams(6, 6, 3)),
    _case("grouped-overlap-other-shape", PolicyKind.GROUPED_OVERLAP, SystemParams(8, 8, 4),
          "the grouped-overlap policy is a fixed six-worker, three-batch instance"),
    # a structure's B need not divide S
    _case("structure-b-not-dividing-s-ok", PolicyKind.EXPLICIT_STRUCTURE,
          SystemParams(50, 50, 25), groups=(frozenset(range(50)),)),
    _case("structure-ok", PolicyKind.EXPLICIT_STRUCTURE, SystemParams(6, 6, 3),
          groups=({0, 5},)),
    _case("structure-worker-out-of-range", PolicyKind.EXPLICIT_STRUCTURE,
          SystemParams(5, 5, 5), "group [0, 5] references a worker >= 5", groups=({0, 5},)),
]


@pytest.mark.parametrize("check", [resolve, validate_policy], ids=lambda f: f.__name__)
@pytest.mark.parametrize("spec, system, message", SHAPE_CASES)
def test_shape_checks(check, spec, system, message):
    if message is None:
        check(spec, system)
    else:
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            check(spec, system)


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
