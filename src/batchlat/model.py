"""Domain types for master/worker systems with redundant batch assignment.

The system under study: a data set of ``n_blocks`` equal-size blocks is
grouped into ``n_batches`` batches, each batch is assigned to one or more of
``n_workers`` machines, every machine computes over its batch and reports to
a master. Worker service times are i.i.d. exponential with rate ``rate``.

All types here are immutable after construction and safe to share across
concurrent simulation workers. Block and worker ids are 0-based dense
integers everywhere, including external formats.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass


class BatchlatError(Exception):
    """Base class for errors raised by this package."""


class DomainError(BatchlatError, ValueError):
    """An argument lies outside an operation's domain."""


class NonPositiveError(DomainError):
    """A parameter that must be strictly positive is zero or negative."""


class NonDivisibleError(DomainError):
    """A required divisibility between system parameters does not hold."""


class ComplexityGuardError(BatchlatError):
    """Exact computation refused because the instance exceeds its size guard.

    Callers should fall back to Monte Carlo estimation.
    """


class NoCoverageError(BatchlatError):
    """Every simulated trial was uncovered, so no completion time exists."""


_MAX_SAMPLES = 2**53


def _require_positive_int(value: object, name: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise DomainError(f"{name} must be an integer, got {value!r}")
    if value <= 0:
        raise NonPositiveError(f"{name} must be positive, got {value}")
    return value


def _require_rate(value: object, name: str) -> float:
    """A service rate in [1e-100, 1e100]. Sample times scale as 1/rate and
    the Monte Carlo variance sums their squares, which overflow below a rate
    of about 2.7e-153 and underflow to zero above about 1e154; the bounds
    leave some 50 orders of margin on each side."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise DomainError(f"{name} must be a number, got {value!r}")
    # compared before float(), which overflows on an int past the float range
    if not 0 < value < math.inf:
        raise NonPositiveError(f"{name} must be positive and finite, got {value}")
    if not 1e-100 <= value <= 1e100:
        raise DomainError(f"{name} must lie in [1e-100, 1e100], got {value}")
    return float(value)


def _require_nonneg_int(value: object, name: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise DomainError(f"{name} must be a non-negative integer, got {value!r}")
    return value


def _require_sample_count(value: object, name: str) -> int:
    """A trial count from 1 to 2^53: every count up to 2^53 is a float64
    exactly, so fractions and means over the trials divide by the true count."""
    _require_positive_int(value, name)
    if value > _MAX_SAMPLES:
        raise DomainError(f"{name} must be at most 2^53, got {value}")
    return value


def _require_replication(n_workers: object, n_batches: object, layout: str) -> int:
    """N/B for a layout that gives each of the B batches N/B workers, so B | N."""
    _require_positive_int(n_workers, "n_workers")
    _require_positive_int(n_batches, "n_batches")
    if n_workers % n_batches != 0:
        raise NonDivisibleError(
            f"{layout} needs n_batches={n_batches} dividing n_workers={n_workers}"
        )
    return n_workers // n_batches


def _require_list(
    values: object, name: str, require_entry: Callable[[object, str], object] | None = None
) -> tuple:
    """``values`` as a non-empty tuple, each entry passed through ``require_entry``."""
    if isinstance(values, (str, bytes)) or not isinstance(values, Iterable):
        raise DomainError(f"{name} must be a list, got {values!r}")
    out = tuple(values)
    if not out:
        raise DomainError(f"{name} must be non-empty")
    if require_entry is None:
        return out
    return tuple(require_entry(v, name) for v in out)


@dataclass(frozen=True)
class SystemParams:
    """System shape: N workers, S data blocks, B batches, per-worker rate.

    Positivity is enforced at construction. Divisibility depends on the
    policy, so ``policies.resolve`` checks it: B | S always, and S = N for
    the overlapping kinds. No code in the package reads ``rate``, since
    ``SimConfig.rate`` drives sampling; it stays because the benchmark in
    ``perfbench/`` passes it.
    """

    n_workers: int
    n_blocks: int
    n_batches: int
    rate: float = 1.0

    def __post_init__(self) -> None:
        _require_positive_int(self.n_workers, "n_workers")
        _require_positive_int(self.n_blocks, "n_blocks")
        _require_positive_int(self.n_batches, "n_batches")
        _require_rate(self.rate, "rate")


@dataclass(frozen=True)
class AssignmentVector:
    """Per-batch worker counts for non-overlapping batching.

    Entry i is the number of workers holding batch i. Every entry is
    positive: a batch that no worker holds is never recovered, so the job
    could not complete.
    """

    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        counts = tuple(_require_positive_int(c, "count") for c in self.counts)
        if len(counts) == 0:
            raise DomainError("assignment vector must have at least one batch")
        object.__setattr__(self, "counts", counts)


@dataclass(frozen=True)
class BatchLayout:
    """Per-worker block sets for overlapping batching.

    ``batches[w]`` is the set of block ids held by worker w. Construction
    enforces: equal batch sizes, batch size dividing ``n_blocks``, ids in
    range, no duplicate block within a batch, and a uniform replication
    factor (every block held by exactly ``n_workers * batch_size / n_blocks``
    workers).
    """

    batches: tuple[frozenset[int], ...]
    n_blocks: int

    def __post_init__(self) -> None:
        _require_positive_int(self.n_blocks, "n_blocks")
        raw = tuple(self.batches)
        if len(raw) == 0:
            raise DomainError("layout must have at least one worker batch")
        norm: list[frozenset[int]] = []
        for w, batch in enumerate(raw):
            items = list(batch)
            fs = frozenset(items)
            if len(fs) != len(items):
                raise DomainError(f"batch of worker {w} contains a duplicate block")
            if not fs:
                raise DomainError(f"batch of worker {w} is empty")
            for b in fs:
                if isinstance(b, bool) or not isinstance(b, int):
                    raise DomainError(f"block ids must be integers, got {b!r}")
                if not 0 <= b < self.n_blocks:
                    raise DomainError(f"block id {b} out of range [0, {self.n_blocks})")
            norm.append(fs)
        sizes = {len(fs) for fs in norm}
        if len(sizes) != 1:
            raise DomainError(f"all batches must have equal size, got sizes {sorted(sizes)}")
        size = sizes.pop()
        if self.n_blocks % size != 0:
            raise NonDivisibleError(
                f"batch size {size} must divide n_blocks={self.n_blocks}"
            )
        replication, rem = divmod(len(norm) * size, self.n_blocks)
        if rem != 0:
            raise NonDivisibleError(
                "total block slots must be a multiple of n_blocks "
                f"(got {len(norm)} batches of size {size} over {self.n_blocks} blocks)"
            )
        counts = [0] * self.n_blocks
        for fs in norm:
            for b in fs:
                counts[b] += 1
        if any(c != replication for c in counts):
            raise DomainError(
                f"every block must appear in exactly {replication} batches, "
                f"got counts {counts}"
            )
        object.__setattr__(self, "batches", tuple(norm))


@dataclass(frozen=True)
class RecoveryStructure:
    """Worker groups defining job completion for overlapping batching.

    The job completes as soon as every worker of some group has finished.
    For a structure to be meaningful against a layout, each group's batches
    must exactly partition the block set; the layout constructors in
    ``policies`` return groups that do.
    """

    groups: tuple[frozenset[int], ...]

    def __post_init__(self) -> None:
        groups = tuple(map(frozenset, self.groups))
        if len(groups) == 0:
            raise DomainError("recovery structure must have at least one group")
        for i, group in enumerate(groups):  # the first fault in group order is named
            if not group:
                raise DomainError(f"group {i} is empty")
            for w in group:
                _require_nonneg_int(w, "worker id")
        object.__setattr__(self, "groups", groups)


@dataclass(frozen=True)
class CompletionEstimate:
    """Monte Carlo summary of job completion time.

    ``coverage_rate`` is the fraction of trials in which the job was
    completable; it is 1.0 for deterministic assignment policies. The mean
    and confidence interval are taken over covered trials only.
    """

    mean: float
    std_error: float
    ci95_low: float
    ci95_high: float
    n_samples: int
    seed: int
    coverage_rate: float = 1.0

    def __post_init__(self) -> None:
        _require_positive_int(self.n_samples, "n_samples")
        _require_nonneg_int(self.seed, "seed")
        if not (self.ci95_low <= self.mean <= self.ci95_high):
            raise DomainError(
                f"confidence interval [{self.ci95_low}, {self.ci95_high}] "
                f"must contain the mean {self.mean}"
            )
        if self.std_error < 0:
            raise DomainError(f"std_error must be non-negative, got {self.std_error}")
        if not 0.0 <= self.coverage_rate <= 1.0:
            raise DomainError(f"coverage_rate must lie in [0, 1], got {self.coverage_rate}")

    def contains(self, value: float) -> bool:
        """Whether the 95% confidence interval contains ``value``."""
        return self.ci95_low <= value <= self.ci95_high


def _require_counts(vector: AssignmentVector | Sequence[int]) -> tuple[int, ...]:
    """The counts of an assignment vector or of a plain sequence of counts."""
    if isinstance(vector, AssignmentVector):
        return vector.counts
    return AssignmentVector(tuple(vector)).counts


def _require_groups(
    structure: RecoveryStructure | Iterable[Iterable[int]],
    n_workers: int | None = None,
) -> tuple[frozenset[int], ...]:
    """The groups of a recovery structure or of an iterable of worker sets,
    each worker id below n_workers when that is given."""
    if not isinstance(structure, RecoveryStructure):
        structure = RecoveryStructure(tuple(structure))
    groups = structure.groups
    if n_workers is not None and max(frozenset().union(*groups)) >= n_workers:
        bad = next(g for g in groups if max(g) >= n_workers)
        raise DomainError(f"group {sorted(bad)} references a worker >= {n_workers}")
    return groups
