"""Domain-type invariants: construction-time validation and error taxonomy."""

import dataclasses
import math

import pytest

from batchlat.model import (
    AssignmentVector,
    BatchLayout,
    CompletionEstimate,
    DomainError,
    NonDivisibleError,
    NonPositiveError,
    RecoveryStructure,
    ServiceSample,
    SystemParams,
)
from batchlat.policies import PolicyKind, PolicySpec, cyclic_layout, resolve


class TestSystemParams:
    def test_fields_and_derived(self):
        p = SystemParams(6, 6, 3, 1.0)
        assert p.batch_size == 2
        assert p.replication == 2

    @pytest.mark.parametrize("kwargs", [
        dict(n_workers=0, n_blocks=6, n_batches=3),
        dict(n_workers=6, n_blocks=-1, n_batches=3),
        dict(n_workers=6, n_blocks=6, n_batches=0),
    ])
    def test_nonpositive_counts_rejected(self, kwargs):
        with pytest.raises(NonPositiveError):
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


class TestValidateParams:
    """System shape checks, which ``resolve`` makes for each policy kind."""

    def test_overlapping_ok(self):
        resolve(PolicySpec(PolicyKind.CYCLIC), SystemParams(6, 6, 3))

    def test_overlapping_nondivisible(self):
        with pytest.raises(NonDivisibleError):
            resolve(PolicySpec(PolicyKind.CYCLIC), SystemParams(6, 6, 4))

    def test_any_kind_ok(self):
        spec = PolicySpec(PolicyKind.EXPLICIT_STRUCTURE, groups=(frozenset(range(50)),))
        resolve(spec, SystemParams(50, 50, 25))

    def test_batch_size_must_divide(self):
        with pytest.raises(NonDivisibleError):
            resolve(PolicySpec(PolicyKind.BALANCED), SystemParams(10, 9, 2))

    def test_overlapping_requires_equal_blocks_and_workers(self):
        with pytest.raises(DomainError):
            resolve(PolicySpec(PolicyKind.CYCLIC), SystemParams(8, 4, 2))

    def test_non_overlapping_allows_unequal_blocks_and_workers(self):
        resolve(PolicySpec(PolicyKind.BALANCED), SystemParams(8, 4, 2))

    def test_divisibility_checked_before_block_count(self):
        with pytest.raises(NonDivisibleError, match=r"^n_batches=3 must divide n_blocks=4$"):
            resolve(PolicySpec(PolicyKind.CYCLIC), SystemParams(6, 4, 3))
        with pytest.raises(DomainError, match=r"requires n_blocks == n_workers, got S=4, N=8$"):
            resolve(PolicySpec(PolicyKind.GROUPED_OVERLAP), SystemParams(8, 4, 2))


class TestAssignmentVector:
    def test_counts_normalized_to_tuple(self):
        v = AssignmentVector([2, 2, 2])
        assert v.counts == (2, 2, 2)
        assert v.n_workers == 6
        assert v.n_batches == 3

    def test_zero_counts_allowed_but_flagged(self):
        v = AssignmentVector((2, 0, 4))
        assert not v.covers_all_batches
        assert AssignmentVector((1, 1)).covers_all_batches

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            AssignmentVector((2, -1, 5))

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            AssignmentVector(())

    def test_non_integer_rejected(self):
        with pytest.raises(DomainError):
            AssignmentVector((2.0, 2, 2))


class TestBatchLayout:
    def test_valid_layout(self):
        layout = BatchLayout(({0, 1}, {1, 2}, {2, 3}, {3, 0}), n_blocks=4)
        assert layout.n_workers == 4
        assert layout.batch_size == 2
        assert layout.n_batches == 2
        assert layout.replication == 2

    def test_duplicate_block_in_batch_rejected(self):
        with pytest.raises(DomainError):
            BatchLayout(([0, 0], [1, 2], [2, 1], [0, 1]), n_blocks=3)

    def test_unequal_batch_sizes_rejected(self):
        with pytest.raises(DomainError):
            BatchLayout(({0, 1}, {2}), n_blocks=3)

    def test_out_of_range_block_rejected(self):
        with pytest.raises(DomainError):
            BatchLayout(({0, 4}, {1, 2}), n_blocks=4)

    def test_nonuniform_replication_rejected(self):
        # block 0 appears twice, block 3 never
        with pytest.raises(DomainError):
            BatchLayout(({0, 1}, {0, 2}), n_blocks=4)

    def test_batch_size_must_divide_blocks(self):
        with pytest.raises(NonDivisibleError):
            BatchLayout(({0, 1}, {1, 2}, {2, 0}), n_blocks=3)


class TestRecoveryStructure:
    def test_groups_normalized(self):
        rs = RecoveryStructure(([0, 2, 4], [1, 3, 5]))
        assert rs.groups == (frozenset({0, 2, 4}), frozenset({1, 3, 5}))
        assert rs.n_groups == 2
        assert rs.workers() == frozenset(range(6))
        assert rs.unused_workers(8) == frozenset({6, 7})

    def test_empty_group_rejected(self):
        with pytest.raises(DomainError):
            RecoveryStructure((frozenset(), frozenset({1})))

    def test_no_groups_rejected(self):
        with pytest.raises(DomainError):
            RecoveryStructure(())

    def test_validate_partitions_accepts_cyclic(self):
        layout, structure = cyclic_layout(6, 3)
        structure.validate_partitions(layout)

    def test_validate_partitions_rejects_overlap(self):
        layout, _ = cyclic_layout(6, 3)
        # workers 0 and 1 share block 1
        with pytest.raises(DomainError):
            RecoveryStructure(({0, 1, 4},)).validate_partitions(layout)

    def test_validate_partitions_rejects_gap(self):
        layout, _ = cyclic_layout(6, 3)
        with pytest.raises(DomainError):
            RecoveryStructure(({0, 2},)).validate_partitions(layout)

    def test_validate_partitions_rejects_unknown_worker(self):
        layout, _ = cyclic_layout(6, 3)
        with pytest.raises(DomainError):
            RecoveryStructure(({0, 2, 9},)).validate_partitions(layout)


class TestServiceSample:
    def test_times_normalized(self):
        s = ServiceSample((1, 2.5, 0.25))
        assert s.times == (1.0, 2.5, 0.25)
        assert s.n_workers == 3

    @pytest.mark.parametrize("times", [(), (0.0, 1.0), (-1.0,), (math.inf, 1.0), (math.nan,)])
    def test_invalid_times_rejected(self, times):
        with pytest.raises(DomainError):
            ServiceSample(times)


class TestCompletionEstimate:
    def test_valid(self):
        est = CompletionEstimate(
            mean=1.0, std_error=0.01, ci95_low=0.98, ci95_high=1.02,
            n_samples=1000, seed=7, coverage_rate=0.9,
        )
        assert est.contains(1.0)
        assert est.contains(0.98) and est.contains(1.02)
        assert not est.contains(1.03)

    def test_mean_outside_interval_rejected(self):
        with pytest.raises(DomainError):
            CompletionEstimate(
                mean=2.0, std_error=0.01, ci95_low=0.9, ci95_high=1.1,
                n_samples=1000, seed=7,
            )

    def test_coverage_rate_bounds(self):
        with pytest.raises(DomainError):
            CompletionEstimate(
                mean=1.0, std_error=0.0, ci95_low=1.0, ci95_high=1.0,
                n_samples=10, seed=0, coverage_rate=1.5,
            )

    def test_nonpositive_samples_rejected(self):
        with pytest.raises(DomainError):
            CompletionEstimate(
                mean=1.0, std_error=0.0, ci95_low=1.0, ci95_high=1.0,
                n_samples=0, seed=0,
            )

    def test_negative_std_error_rejected(self):
        with pytest.raises(DomainError):
            CompletionEstimate(
                mean=1.0, std_error=-0.1, ci95_low=0.9, ci95_high=1.1,
                n_samples=10, seed=0,
            )
