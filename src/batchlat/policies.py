"""Constructors and validators for batch-to-worker assignment policies.

Two families. Non-overlapping batching splits the data set into B disjoint
batches and assigns each worker exactly one of them; such a policy is fully
described by an AssignmentVector of per-batch replica counts. Overlapping
batching gives each worker a window of blocks that may intersect other
workers' windows; completion is then governed by a RecoveryStructure of
worker groups whose batches partition the block set.

``resolve`` is where a kind's meaning lives: it checks a policy against a
system, then returns a Plan holding the policy's replica counts, recovery
groups and exact closed form, which the sampler and the CLI read.
``validate_policy`` is ``resolve`` with the plan thrown away.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import analytics
from .model import (
    AssignmentVector,
    BatchLayout,
    ComplexityGuardError,
    DomainError,
    NonDivisibleError,
    RecoveryStructure,
    SystemParams,
    _require_counts,
    _require_groups,
    _require_positive_int,
)

__all__ = [
    "PolicyKind",
    "PolicySpec",
    "Plan",
    "MAX_REPLICATED_GROUPS",
    "balanced_assignment",
    "random_cc_assignment",
    "cyclic_layout",
    "shared_pair_layout",
    "replicated_nonoverlap_layout",
    "validate_policy",
    "resolve",
]

#: Refuse to materialize replicated-layout recovery structures beyond this
#: many groups; the assignment-vector form covers those cases compactly.
MAX_REPLICATED_GROUPS = 4096


def _require_batch_size(params: SystemParams) -> None:
    """B | S: every batch holds a whole number of blocks."""
    if params.n_blocks % params.n_batches != 0:
        raise NonDivisibleError(
            f"n_batches={params.n_batches} must divide n_blocks={params.n_blocks}"
        )


class PolicyKind(str, Enum):
    """The policy families accepted by the simulator and the CLI."""

    BALANCED = "balanced"
    EXPLICIT_VECTOR = "explicit-vector"
    RANDOM_CC = "random-cc"
    CYCLIC = "cyclic"
    GROUPED_OVERLAP = "grouped-overlap"
    EXPLICIT_STRUCTURE = "explicit-structure"

    @classmethod
    def _missing_(cls, value: object):
        # PolicyKind(name) reports an unknown name as a DomainError.
        raise DomainError(
            f"unknown policy kind {value!r}; expected one of {sorted(k.value for k in cls)}"
        )

    @property
    def carries_payload(self) -> bool:
        """Whether a PolicySpec of this kind needs a vector or groups; such a
        kind cannot be swept, since a sweep grid has no payload to give it."""
        return self in (PolicyKind.EXPLICIT_VECTOR, PolicyKind.EXPLICIT_STRUCTURE)

    @property
    def fixed_shape(self) -> tuple[int, int] | None:
        """(N, B) of a kind that exists at one shape only."""
        return (6, 3) if self is PolicyKind.GROUPED_OVERLAP else None

    def system(self, n_workers: int, n_batches: int, rate: float = 1.0) -> SystemParams:
        """SystemParams for this kind, picking the canonical block count.

        Overlapping and structure policies use S = N. Non-overlapping timing
        does not depend on the block count, so S defaults to N when divisible
        and to B (one block per batch) otherwise.
        """
        n_blocks = n_workers
        if self in (PolicyKind.BALANCED, PolicyKind.EXPLICIT_VECTOR, PolicyKind.RANDOM_CC):
            n_blocks = n_workers if n_workers % n_batches == 0 else n_batches
        return SystemParams(n_workers, n_blocks, n_batches, rate)


@dataclass(frozen=True)
class PolicySpec:
    """A policy kind plus the payload that kind needs.

    ``explicit-vector`` carries ``vector`` (per-batch replica counts) and
    ``explicit-structure`` carries ``groups`` (worker-id sets); every other
    kind is fully determined by the system parameters and takes no payload.
    """

    kind: PolicyKind
    vector: tuple[int, ...] | None = None
    groups: tuple[frozenset[int], ...] | None = None

    def __post_init__(self) -> None:
        kind = PolicyKind(self.kind)
        object.__setattr__(self, "kind", kind)
        if kind is PolicyKind.EXPLICIT_VECTOR:
            if self.vector is None:
                raise DomainError("explicit-vector policy requires a replica-count vector")
            object.__setattr__(self, "vector", _require_counts(self.vector))
        elif self.vector is not None:
            raise DomainError(f"policy kind {kind.value!r} takes no vector payload")
        if kind is PolicyKind.EXPLICIT_STRUCTURE:
            if self.groups is None:
                raise DomainError("explicit-structure policy requires recovery groups")
            object.__setattr__(self, "groups", _require_groups(self.groups))
        elif self.groups is not None:
            raise DomainError(f"policy kind {kind.value!r} takes no groups payload")


def balanced_assignment(n_workers: int, n_batches: int) -> AssignmentVector:
    """The unique balanced vector: every one of the B batches gets N/B workers."""
    _require_positive_int(n_workers, "n_workers")
    _require_positive_int(n_batches, "n_batches")
    if n_workers % n_batches != 0:
        raise NonDivisibleError(
            f"balanced assignment needs n_batches={n_batches} dividing n_workers={n_workers}"
        )
    return AssignmentVector((n_workers // n_batches,) * n_batches)


def random_cc_assignment(
    n_workers: int, n_batches: int, rng: np.random.Generator
) -> AssignmentVector:
    """Each worker draws a batch uniformly with replacement; returns the counts.

    Entries may be zero: there is a non-zero probability that some batch is
    never drawn, in which case the resulting vector cannot complete a job.
    The caller owns the generator; this function draws exactly n_workers
    uniforms from it.
    """
    _require_positive_int(n_workers, "n_workers")
    _require_positive_int(n_batches, "n_batches")
    # floor(u * B) with the top value clipped; u < 1, so the clip only
    # guards the rounding edge of the multiply.
    ids = np.minimum(
        (rng.random(n_workers) * n_batches).astype(np.int64), n_batches - 1
    )
    counts = np.bincount(ids, minlength=n_batches)
    return AssignmentVector(tuple(int(c) for c in counts))


def cyclic_layout(n_workers: int, n_batches: int) -> tuple[BatchLayout, RecoveryStructure]:
    """Cyclic overlapping batching over S = N blocks.

    Worker w holds the window of N/B consecutive blocks starting at block w,
    wrapping modulo N. The N/B recovery groups are the stride-N/B worker
    sets {r, r + N/B, r + 2N/B, ...}; each group's windows tile the block
    set exactly.
    """
    _require_batch_size(SystemParams(n_workers, n_workers, n_batches))
    size = n_workers // n_batches
    batches = tuple(
        frozenset((w + j) % n_workers for j in range(size)) for w in range(n_workers)
    )
    groups = tuple(
        frozenset(r + i * size for i in range(n_batches)) for r in range(size)
    )
    return BatchLayout(batches, n_blocks=n_workers), RecoveryStructure(groups)


def shared_pair_layout() -> tuple[BatchLayout, RecoveryStructure]:
    """Fixed six-worker overlapping layout with a shared trailing block pair.

    Workers 4 and 5 hold the identical batch {4, 5}, so the four recovery
    groups all route through one of them; workers 0..3 hold the wrapped
    windows over blocks 0..3. Expected completion time sits strictly between
    the cyclic layout and the replicated non-overlapping layout on the same
    six workers.
    """
    batches = (
        frozenset({0, 1}),
        frozenset({1, 2}),
        frozenset({2, 3}),
        frozenset({3, 0}),
        frozenset({4, 5}),
        frozenset({4, 5}),
    )
    groups = (
        frozenset({0, 2, 4}),
        frozenset({0, 2, 5}),
        frozenset({1, 3, 4}),
        frozenset({1, 3, 5}),
    )
    return BatchLayout(batches, n_blocks=6), RecoveryStructure(groups)


def replicated_nonoverlap_layout(
    n_workers: int, n_batches: int
) -> tuple[BatchLayout, RecoveryStructure]:
    """Non-overlapping batching expressed as a layout over S = N blocks.

    Workers come in runs of N/B holding an identical batch of N/B
    consecutive blocks. The recovery groups are every pick of one replica
    per batch, (N/B)^B of them, so completion coincides with the balanced
    assignment vector: each batch needs at least one finished replica.
    Materializing the groups is refused beyond MAX_REPLICATED_GROUPS; use
    the assignment-vector form for larger systems.
    """
    _require_batch_size(SystemParams(n_workers, n_workers, n_batches))
    replication = n_workers // n_batches
    size = n_workers // n_batches
    batches = tuple(
        frozenset(range((w // replication) * size, (w // replication + 1) * size))
        for w in range(n_workers)
    )
    n_groups = replication**n_batches
    if n_groups > MAX_REPLICATED_GROUPS:
        raise ComplexityGuardError(
            f"replicated layout would need {n_groups} recovery groups "
            f"(> {MAX_REPLICATED_GROUPS}); use the balanced AssignmentVector instead"
        )
    groups = tuple(
        frozenset(b * replication + pick[b] for b in range(n_batches))
        for pick in itertools.product(range(replication), repeat=n_batches)
    )
    return BatchLayout(batches, n_blocks=n_workers), RecoveryStructure(groups)


@dataclass(frozen=True)
class Plan:
    """What a policy means on one system.

    Exactly one completion rule is set, or neither: ``counts`` (per-batch
    replica counts; the job ends at the max over batches of replica minima)
    or ``groups`` (a function returning the recovery groups; the job ends at
    the min over groups of the group maximum, and groups are built only when
    it is called).
    Random-cc has neither, because its assignment is re-drawn every trial.
    ``exact(rate)`` is the closed-form expected time, None for random-cc; it
    raises ComplexityGuardError where the exact route refuses the size.
    """

    counts: tuple[int, ...] | None = None
    groups: Callable[[], tuple[frozenset[int], ...]] | None = None
    exact: Callable[[float], float] | None = None


def resolve(spec: PolicySpec, params: SystemParams) -> Plan:
    """Check that a policy is usable with the given system parameters and
    return the Plan it means there.

    Raises NonDivisibleError unless B | S, DomainError unless S = N for
    cyclic and grouped-overlap, and DomainError (or a subclass) for other
    shapes that do not line up, such as a vector of the wrong length.
    """
    if not isinstance(spec, PolicySpec):
        raise DomainError(f"expected a PolicySpec, got {spec!r}")
    if not isinstance(params, SystemParams):
        raise DomainError(f"expected SystemParams, got {params!r}")
    kind, n, b = spec.kind, params.n_workers, params.n_batches
    _require_batch_size(params)
    if kind in (PolicyKind.CYCLIC, PolicyKind.GROUPED_OVERLAP) and params.n_blocks != n:
        raise DomainError(
            "overlapping batching requires n_blocks == n_workers, got "
            f"S={params.n_blocks}, N={n}"
        )
    if kind is PolicyKind.BALANCED:
        return Plan(
            counts=balanced_assignment(n, b).counts,  # raises unless B | N
            exact=lambda rate: analytics.expected_time_balanced(n, b, rate),
        )
    if kind is PolicyKind.EXPLICIT_VECTOR:
        vector = spec.vector
        if len(vector) != b:
            raise DomainError(
                f"vector has {len(vector)} entries but the system has {b} batches"
            )
        if sum(vector) != n:
            raise DomainError(f"vector assigns {sum(vector)} workers but the system has {n}")
        return Plan(
            counts=vector,
            exact=lambda rate: analytics.expected_time_assignment(vector, rate),
        )
    if kind is PolicyKind.RANDOM_CC:
        return Plan()
    if kind is PolicyKind.CYCLIC:
        return Plan(
            groups=lambda: cyclic_layout(n, b)[1].groups,
            exact=lambda rate: analytics.expected_time_cyclic(n, b, rate),
        )
    if kind is PolicyKind.GROUPED_OVERLAP:
        if kind.fixed_shape != (n, b):
            raise DomainError(
                "the grouped-overlap policy is a fixed six-worker, three-batch instance"
            )
    else:  # explicit-structure
        for g in spec.groups:
            if max(g) >= n:
                raise DomainError(f"group {sorted(g)} references a worker >= {n}")

    def groups() -> tuple[frozenset[int], ...]:
        return shared_pair_layout()[1].groups if spec.groups is None else spec.groups

    return Plan(
        groups=groups,
        exact=lambda rate: analytics.exact_expected_time_structure(groups(), n, rate),
    )


def validate_policy(spec: PolicySpec, params: SystemParams) -> None:
    """``resolve`` with the plan thrown away: raises exactly where it does."""
    resolve(spec, params)
