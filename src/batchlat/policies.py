"""Constructors and validators for batch-to-worker assignment policies.

Two families. Non-overlapping batching splits the data set into B disjoint
batches and assigns each worker exactly one of them; such a policy is fully
described by its vector of per-batch replica counts. Overlapping
batching gives each worker a window of blocks that may intersect other
workers' windows; completion is then governed by a RecoveryStructure of
worker groups whose batches partition the block set.

A kind's meaning lives in two places here. ``PolicySpec.system`` picks the
system a policy runs on from the sizes a caller gives, and ``resolve``
checks a policy against a system, then returns a Plan holding the policy's
replica counts, recovery groups and exact closed form, which the sampler
and the CLI read. ``validate_policy`` is ``resolve`` with the plan thrown
away; no code in the package calls it, and it stays only because the
benchmark in ``perfbench/`` traces it by name.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from enum import Enum, EnumMeta

from . import analytics
from .model import (
    ComplexityGuardError,
    DomainError,
    RecoveryStructure,
    SystemParams,
    _require_counts,
    _require_groups,
    _require_replication,
    _shown,
)

__all__ = [
    "PolicyKind",
    "PolicySpec",
    "Plan",
    "MAX_REPLICATED_GROUPS",
    "balanced_assignment",
    "cyclic_layout",
    "shared_pair_layout",
    "replicated_nonoverlap_layout",
    "resolve",
]

#: Refuse to materialize replicated-layout recovery structures beyond this
#: many groups; the assignment-vector form covers those cases compactly.
MAX_REPLICATED_GROUPS = 4096

# The grouped-overlap policy: the shared-pair layout's one (N, B) and its groups.
_SHARED_PAIR_SHAPE = (6, 3)
_SHARED_PAIR_GROUPS = (
    frozenset({0, 2, 4}),
    frozenset({0, 2, 5}),
    frozenset({1, 3, 4}),
    frozenset({1, 3, 5}),
)


class _PolicyKindType(EnumMeta):
    def __call__(cls, value: object, *args, **kwargs):
        # PolicyKind(name) reports an unknown name as a DomainError. Enum's own
        # refusal formats repr(value), which raises on an int past the digit limit.
        try:
            return super().__call__(value, *args, **kwargs)
        except ValueError:
            raise DomainError(
                f"unknown policy kind {_shown(value)}; "
                f"expected one of {sorted(k.value for k in cls)}"
            ) from None


class PolicyKind(str, Enum, metaclass=_PolicyKindType):
    """The policy families accepted by the simulator and the CLI."""

    BALANCED = "balanced"
    EXPLICIT_VECTOR = "explicit-vector"
    RANDOM_CC = "random-cc"
    CYCLIC = "cyclic"
    GROUPED_OVERLAP = "grouped-overlap"
    EXPLICIT_STRUCTURE = "explicit-structure"

    @property
    def carries_payload(self) -> bool:
        """Whether a PolicySpec of this kind needs a vector or groups; such a
        kind cannot be swept, since a sweep grid has no payload to give it."""
        return self in (PolicyKind.EXPLICIT_VECTOR, PolicyKind.EXPLICIT_STRUCTURE)


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

    def system(self, n_workers: int | None = None, n_batches: int | None = None) -> SystemParams:
        """The system this policy runs on, given the N and B that a caller fixes.

        Where a size is not given, a vector gives N = sum and B = len,
        grouped-overlap gives (6, 3) and explicit-structure B = 1; every other
        size is required. S = B for the non-overlapping kinds and S = N for
        the rest. ``resolve`` refuses a given size that contradicts the policy.
        """
        default_n = default_b = None
        if self.vector is not None:
            default_n, default_b = sum(self.vector), len(self.vector)
        elif self.kind is PolicyKind.GROUPED_OVERLAP:
            default_n, default_b = _SHARED_PAIR_SHAPE
        elif self.kind is PolicyKind.EXPLICIT_STRUCTURE:
            default_b = 1  # the groups do not fix B, which only feeds reports
        n = default_n if n_workers is None else n_workers
        b = default_b if n_batches is None else n_batches
        if n is None or b is None:
            needed = "n_workers is" if default_b is not None else "n_workers and n_batches are"
            raise DomainError(f"{needed} required for {self.kind.value}")
        non_overlapping = (PolicyKind.BALANCED, PolicyKind.EXPLICIT_VECTOR, PolicyKind.RANDOM_CC)
        return SystemParams(n, b if self.kind in non_overlapping else n, b)


def balanced_assignment(n_workers: int, n_batches: int) -> tuple[int, ...]:
    """The unique balanced vector: every one of the B batches gets N/B workers."""
    _, n_batches, replication = _require_replication(n_workers, n_batches, "balanced assignment")
    return (replication,) * n_batches


def cyclic_layout(
    n_workers: int, n_batches: int
) -> tuple[tuple[frozenset[int], ...], RecoveryStructure]:
    """Cyclic overlapping batching over S = N blocks, as (batches, structure).

    ``batches[w]``, worker w's block ids, is the window of N/B consecutive
    blocks starting at block w, wrapping modulo N. The N/B recovery groups
    are the stride-N/B worker sets {r, r + N/B, r + 2N/B, ...}; each group's
    windows tile the block set exactly. Refused past N * N/B = 2^20 block ids
    in the windows: at (1024, 1) it takes 0.11-0.21 s and 56 MiB traced.
    """
    n_workers, _, size = _require_replication(n_workers, n_batches, "cyclic layout")
    batches = _windows("cyclic layout", n_workers, size, range(n_workers))
    return batches, RecoveryStructure(_cyclic_groups(n_workers, size))


def _windows(
    layout: str, n_workers: int, size: int, starts: Iterable[int]
) -> tuple[frozenset[int], ...]:
    """Worker w's window: ``size`` consecutive block ids from the w-th start,
    wrapping modulo N. Refused past 2^20 ids in all, before any is built."""
    if n_workers * size > 2**20:
        raise ComplexityGuardError(
            f"{layout} would build {_shown(n_workers)} windows of {_shown(size)} block ids"
            " (> 2^20 in all)"
        )
    return tuple(frozenset((s + j) % n_workers for j in range(size)) for s in starts)


def _cyclic_groups(n_workers: int, size: int) -> tuple[frozenset[int], ...]:
    """The cyclic layout's recovery groups, the stride-``size`` worker sets
    {r, r + size, r + 2 size, ...} for r < size, without building its windows."""
    return tuple(frozenset(range(r, n_workers, size)) for r in range(size))


def shared_pair_layout() -> tuple[tuple[frozenset[int], ...], RecoveryStructure]:
    """Fixed six-worker overlapping layout with a shared trailing block pair,
    as (batches, structure), ``batches[w]`` holding worker w's block ids.

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
    return batches, RecoveryStructure(_SHARED_PAIR_GROUPS)


def replicated_nonoverlap_layout(
    n_workers: int, n_batches: int
) -> tuple[tuple[frozenset[int], ...], RecoveryStructure]:
    """Non-overlapping batching expressed as a layout over S = N blocks, as
    (batches, structure), ``batches[w]`` holding worker w's block ids.

    Workers come in runs of N/B holding an identical batch of N/B
    consecutive blocks. The recovery groups are every pick of one replica
    per batch, (N/B)^B of them, so completion coincides with the balanced
    assignment vector: each batch needs at least one finished replica.
    Materializing the groups is refused beyond MAX_REPLICATED_GROUPS; use
    the assignment-vector form for larger systems.
    """
    n_workers, n_batches, replication = _require_replication(
        n_workers, n_batches, "replicated layout"
    )
    # any N/B >= 2 passes 4096 = 2^12 by its 13th power, so (N/B)^B is never built in full
    if replication ** min(n_batches, MAX_REPLICATED_GROUPS.bit_length()) > MAX_REPLICATED_GROUPS:
        raise ComplexityGuardError(
            f"replicated layout would need {_shown(replication)}^{_shown(n_batches)} recovery"
            f" groups (> {MAX_REPLICATED_GROUPS}); use balanced_assignment instead"
        )
    starts = (w - w % replication for w in range(n_workers))
    batches = _windows("replicated layout", n_workers, replication, starts)
    groups = tuple(
        frozenset(b * replication + pick[b] for b in range(n_batches))
        for pick in itertools.product(range(replication), repeat=n_batches)
    )
    return batches, RecoveryStructure(groups)


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

    Raises DomainError unless B | S, except for explicit-structure, whose
    B only feeds reports; unless S = N for cyclic and grouped-overlap; and
    for other shapes that do not line up, such as a vector of the wrong
    length.
    """
    if not isinstance(spec, PolicySpec):
        raise DomainError(f"expected a PolicySpec, got {_shown(spec)}")
    if not isinstance(params, SystemParams):
        raise DomainError(f"expected SystemParams, got {_shown(params)}")
    kind, n, b = spec.kind, params.n_workers, params.n_batches
    # every batch holds a whole number of blocks
    if kind is not PolicyKind.EXPLICIT_STRUCTURE and params.n_blocks % b != 0:
        raise DomainError(f"n_batches={_shown(b)} must divide n_blocks={_shown(params.n_blocks)}")
    if kind in (PolicyKind.CYCLIC, PolicyKind.GROUPED_OVERLAP) and params.n_blocks != n:
        raise DomainError(
            "overlapping batching requires n_blocks == n_workers, got "
            f"S={_shown(params.n_blocks)}, N={_shown(n)}"
        )
    if kind is PolicyKind.BALANCED:
        return Plan(
            counts=balanced_assignment(n, b),  # raises unless B | N
            exact=lambda rate: analytics.expected_time_balanced(n, b, rate),
        )
    if kind is PolicyKind.EXPLICIT_VECTOR:
        vector = spec.vector
        if len(vector) != b:
            raise DomainError(
                f"vector has {len(vector)} entries but the system has {_shown(b)} batches"
            )
        if sum(vector) != n:
            raise DomainError(
                f"vector assigns {_shown(sum(vector))} workers but the system has {_shown(n)}"
            )
        return Plan(
            counts=vector,
            exact=lambda rate: analytics.expected_time_assignment(vector, rate),
        )
    if kind is PolicyKind.RANDOM_CC:
        return Plan()
    if kind is PolicyKind.CYCLIC:
        return Plan(
            groups=lambda: _cyclic_groups(n, n // b),  # B | S and S = N were checked above
            exact=lambda rate: analytics.expected_time_cyclic(n, b, rate),
        )
    if kind is PolicyKind.GROUPED_OVERLAP:
        if (n, b) != _SHARED_PAIR_SHAPE:
            raise DomainError(
                "the grouped-overlap policy is a fixed six-worker, three-batch instance"
            )
        groups = _SHARED_PAIR_GROUPS
    else:  # explicit-structure
        groups = _require_groups(spec.groups, n)
    return Plan(
        groups=lambda: groups,
        exact=lambda rate: analytics.exact_expected_time_structure(groups, n, rate),
    )


def validate_policy(spec: PolicySpec, params: SystemParams) -> None:
    """``resolve`` with the plan thrown away: raises exactly where it does.

    No code in the package calls it; it stays because the benchmark in
    ``perfbench/`` traces it by name.
    """
    resolve(spec, params)
