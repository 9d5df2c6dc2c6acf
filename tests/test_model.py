"""Domain-type invariants: construction-time validation, and the DomainError
message that names each refused rule."""

import dataclasses
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from batchlat.analytics import (
    exact_expected_time_structure,
    expected_time_assignment,
    expected_time_balanced,
    incomplete_subset_counts,
    majorizes,
    rearranged,
)
from batchlat.model import (
    CompletionEstimate,
    DomainError,
    RecoveryStructure,
    SystemParams,
    _require_counts,
    _require_groups,
)
from batchlat.policies import PolicyKind, PolicySpec, balanced_assignment
from batchlat.sim import coverage_empirical


class TestSystemParams:
    def test_fields_and_derived(self):
        p = SystemParams(6, 6, 3, 1.0)
        assert p.n_blocks // p.n_batches == 2
        assert p.n_workers // p.n_batches == 2

    @pytest.mark.parametrize("kwargs", [
        dict(n_workers=0, n_blocks=6, n_batches=3),
        dict(n_workers=6, n_blocks=-1, n_batches=3),
        dict(n_workers=6, n_blocks=6, n_batches=0),
    ])
    def test_nonpositive_counts_rejected(self, kwargs):
        name, value = next((k, v) for k, v in kwargs.items() if v <= 0)
        with pytest.raises(DomainError, match=f"^{name} must be positive, got {value}$"):
            SystemParams(rate=1.0, **kwargs)

    @pytest.mark.parametrize("rate", [0.0, -1.0, math.inf, math.nan])
    def test_bad_rate_rejected(self, rate):
        with pytest.raises(DomainError):
            SystemParams(6, 6, 3, rate)

    def test_non_integer_rejected(self):
        with pytest.raises(DomainError):
            SystemParams(6.0, 6, 3, 1.0)
        with pytest.raises(DomainError):
            SystemParams(True, 6, 3, 1.0)

    def test_frozen(self):
        p = SystemParams(6, 6, 3, 1.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            p.n_workers = 7


def _spec_vector(vector):
    return PolicySpec(PolicyKind.EXPLICIT_VECTOR, vector=vector).vector


class TestReplicaCounts:
    """Replica counts are checked once, by ``_require_counts``, which
    ``PolicySpec`` (and so ``--vector``) and ``expected_time_assignment`` run."""

    ROUTES = (_require_counts, _spec_vector)

    def test_counts_normalized_to_tuple(self):
        for route in self.ROUTES:
            assert route([2, 2, 2]) == (2, 2, 2)

    def test_zero_count_rejected(self):
        # a batch that no worker holds is never recovered
        for route in self.ROUTES:
            with pytest.raises(DomainError, match="^count must be positive, got 0$"):
                route((2, 0, 4))
            assert route((1, 1)) == (1, 1)

    def test_negative_rejected(self):
        for route in self.ROUTES:
            with pytest.raises(DomainError):
                route((2, -1, 5))

    def test_empty_rejected(self):
        for route in self.ROUTES:
            with pytest.raises(DomainError):
                route(())

    def test_non_integer_rejected(self):
        for route in self.ROUTES:
            with pytest.raises(DomainError):
                route((2.0, 2, 2))


class TestRecoveryStructure:
    def test_groups_normalized(self):
        rs = RecoveryStructure(([0, 2, 4], [1, 3, 5]))
        assert rs.groups == (frozenset({0, 2, 4}), frozenset({1, 3, 5}))
        assert len(rs.groups) == 2
        assert frozenset().union(*rs.groups) == frozenset(range(6))
        assert frozenset(range(8)) - frozenset().union(*rs.groups) == frozenset({6, 7})

    def test_empty_group_rejected(self):
        with pytest.raises(DomainError):
            RecoveryStructure((frozenset(), frozenset({1})))

    def test_no_groups_rejected(self):
        with pytest.raises(DomainError):
            RecoveryStructure(())

    def test_first_fault_is_named(self):
        groups = [frozenset(g) for g in itertools.combinations(range(12), 4)]
        with pytest.raises(DomainError, match="^group 495 is empty$"):
            RecoveryStructure([*groups, (), {-1}, ()])
        with pytest.raises(DomainError, match="got -2$"):
            RecoveryStructure([*groups, {3, -2}, (), {-1}, {True}])
        with pytest.raises(DomainError, match="got True$"):
            RecoveryStructure([*groups, {True}, {-1}])
        for alias in (True, 1.0):  # equal to worker 1, which the union already holds
            with pytest.raises(DomainError, match=f"got {alias}$"):
                RecoveryStructure([*groups, {alias}])
        over = [*groups, {0, 20}, {1, 2}, {30}]
        for structure in (over, RecoveryStructure(over)):
            with pytest.raises(DomainError, match=r"^group \[0, 20\] references a worker >= 12$"):
                _require_groups(structure, 12)
        assert _require_groups(over, 31) == RecoveryStructure(over).groups



class TestCompletionEstimate:
    def test_valid(self):
        est = CompletionEstimate(
            mean=1.0, std_error=0.01, ci95_low=0.98, ci95_high=1.02,
            n_samples=1000, seed=7, coverage_rate=0.9,
        )
        assert est.contains(1.0)
        assert est.contains(0.98) and est.contains(1.02)
        assert not est.contains(1.03)


@pytest.mark.parametrize("call", [
    lambda: expected_time_assignment(5),
    lambda: PolicySpec("explicit-vector", vector=5),
    lambda: RecoveryStructure(7),
    lambda: PolicySpec("explicit-structure", groups=[3]),
    lambda: exact_expected_time_structure(5, 6),
    lambda: incomplete_subset_counts(5, 6),
    lambda: rearranged(5),
    lambda: majorizes(5, 3),
], ids=[
    "expected_time_assignment", "spec-vector", "RecoveryStructure", "spec-groups",
    "exact_expected_time_structure", "incomplete_subset_counts", "rearranged", "majorizes",
])
def test_non_list_payload_is_a_domain_error(call):
    # a scalar where a list belongs is refused by name
    with pytest.raises(DomainError, match=r"must be a list, got \d$"):
        call()


@pytest.mark.parametrize("call", [
    lambda: RecoveryStructure([[[1]]]),
    lambda: PolicySpec("explicit-structure", groups=[[[0]]]),
    lambda: exact_expected_time_structure([[[0]]], 3),
], ids=["RecoveryStructure", "spec-groups", "exact_expected_time_structure"])
def test_unhashable_worker_id_is_a_domain_error(call):
    # each member is checked before frozenset() hashes it
    with pytest.raises(DomainError, match=r"^worker id must be a non-negative integer, got \[\d\]$"):
        call()


@pytest.mark.parametrize("call", [
    lambda: expected_time_assignment({2, 2, 2}),
    lambda: PolicySpec("explicit-vector", vector={2, 2, 2}),
    lambda: _require_counts(frozenset({1, 2})),
    lambda: _require_counts({2: 1}.keys()),
    lambda: majorizes({3, 3}, (4, 2)),
    lambda: rearranged({3: 1, 1: 2}),
], ids=[
    "expected_time_assignment", "spec-vector", "frozenset", "dict-keys", "majorizes",
    "rearranged",
])
def test_unordered_counts_are_a_domain_error(call):
    # a set drops repeated counts and a dict gives its keys
    with pytest.raises(DomainError, match=r"^(assignment vector|vector) must be a list, got "):
        call()


@pytest.mark.parametrize("call, name", [
    (lambda: RecoveryStructure([{0: "a", 1: "b"}]), "group 0"),
    (lambda: RecoveryStructure({frozenset({0}): 1}), "recovery structure"),
    (lambda: PolicySpec("explicit-structure", groups=[{0: 1}]), "group 0"),
], ids=["group", "structure", "spec-groups"])
def test_mapping_of_worker_ids_is_a_domain_error(call, name):
    # a dict would give its keys and drop its values
    with pytest.raises(DomainError, match=f"^{name} must be a list, got {{"):
        call()


def test_sets_of_worker_ids_are_accepted():
    # unlike replica counts, a group's order and repeats carry no meaning
    groups = (frozenset({0, 1}), frozenset({2}))
    assert RecoveryStructure(set(groups)).groups in (groups, groups[::-1])
    assert RecoveryStructure([{0, 1}, {2}]).groups == groups


class TestNumpyScalars:
    """numpy integers are accepted where an int belongs, and any real where a
    rate belongs, each converted to the Python number it equals before it is
    used, since numpy's fixed-width arithmetic wraps: np.int64(1) << 64 is 0."""

    def test_integer_size(self):
        got = expected_time_balanced(np.int64(6), np.int32(3))
        assert got == expected_time_balanced(6, 3)

    def test_integer_vector(self):
        spec = PolicySpec("explicit-vector", vector=np.array([2, 2, 2]))
        assert spec == PolicySpec("explicit-vector", vector=(2, 2, 2))
        assert all(type(c) is int for c in spec.vector)

    def test_real_rate(self):
        assert expected_time_balanced(6, 3, np.float32(2.0)) == expected_time_balanced(6, 3, 2.0)
        assert SystemParams(6, 6, 3, np.float32(0.5)).rate == 0.5

    def test_stored_as_python_numbers(self):
        p = SystemParams(np.int64(6), np.uint8(6), np.int16(3), np.int64(2))
        assert p == SystemParams(6, 6, 3, 2.0)
        assert [type(v) for v in dataclasses.astuple(p)] == [int, int, int, float]
        assert RecoveryStructure([np.array([0, 1])]).groups == (frozenset({0, 1}),)
        assert all(type(w) is int for w in RecoveryStructure([np.array([0, 1])]).groups[0])

    def test_coverage_word_width_from_python_int(self):
        # 1 << B at B = 64 needs the Python int: in int64 it is 0
        want = coverage_empirical(64, 200, 2000, 1)
        assert coverage_empirical(np.int64(64), 200, 2000, 1) == want

    @pytest.mark.parametrize("value", [True, np.True_, np.float64(6.0), np.array([6])],
                             ids=["bool", "np.bool_", "np.float64", "array"])
    def test_non_integers_still_refused(self, value):
        with pytest.raises(DomainError, match="^n_workers must be an integer, got "):
            expected_time_balanced(value, 3)

    @pytest.mark.parametrize("rate", [True, np.True_, "2", 1j],
                             ids=["bool", "np.bool_", "str", "complex"])
    def test_non_real_rate_still_refused(self, rate):
        with pytest.raises(DomainError, match="^rate must be a number, got "):
            expected_time_balanced(6, 3, rate)


@pytest.mark.parametrize("call", [
    lambda: balanced_assignment(10**5000, 3),
    lambda: expected_time_balanced(-10**5000, 3),
    lambda: SystemParams(6, 6, 3, -10**5000),
], ids=["balanced_assignment", "expected_time_balanced", "SystemParams"])
def test_integer_past_the_digit_limit_is_shown_in_hex(call):
    # repr() of an int past 4300 digits raises ValueError, so the message
    # shows it in hex rather than end in that error
    with pytest.raises(DomainError, match=r"[ =]-?0x[0-9a-f]+$"):
        call()


@pytest.mark.parametrize("call, shown", [
    (lambda: expected_time_balanced(6, 3, Fraction(10**5000, 3)), "a Fraction"),
    (lambda: exact_expected_time_structure([[10**5000]], 3), "a list"),
], ids=["fraction-rate", "worker-id"])
def test_value_holding_such_an_int_is_shown_by_type(call, shown):
    with pytest.raises(DomainError, match=f" {shown} too long to show"):
        call()
