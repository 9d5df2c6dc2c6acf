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
import numbers
import operator
from collections.abc import Callable, Iterable, Mapping, Sequence, Set
from dataclasses import dataclass


class BatchlatError(Exception):
    """Base class for errors raised by this package."""


class DomainError(BatchlatError, ValueError):
    """An argument lies outside an operation's domain."""


class ComplexityGuardError(BatchlatError):
    """Exact computation refused because the instance exceeds its size guard.

    Callers should fall back to Monte Carlo estimation.
    """


class NoCoverageError(BatchlatError):
    """Every simulated trial was uncovered, so no completion time exists."""


_MAX_SAMPLES = 2**53


def _shown(value: object) -> str:
    """repr(value) for a message. An int past the interpreter's int-to-str
    digit limit, whose repr raises ValueError, is shown in hex, and any other
    value whose repr raises it, such as a list holding that int, by its type."""
    try:
        return repr(value)
    except ValueError:
        if isinstance(value, int):
            return hex(value)
        return f"a {type(value).__name__} too long to show"


def _integer(value: object) -> int | None:
    """``value`` as a Python int when it is an integer, numpy's included, or
    None; a bool is refused, though Python's ``bool`` is an ``int``, and
    numpy's refuses ``operator.index`` itself."""
    if isinstance(value, bool):
        return None
    try:
        return operator.index(value)
    except TypeError:
        return None


def _require_positive_int(value: object, name: str) -> int:
    """``value`` as a Python int, which must be positive."""
    n = _integer(value)
    if n is None:
        raise DomainError(f"{name} must be an integer, got {_shown(value)}")
    if n <= 0:
        raise DomainError(f"{name} must be positive, got {_shown(n)}")
    return n


def _require_rate(value: object, name: str) -> float:
    """A service rate in [1e-100, 1e100], as a float. Sample times scale as
    1/rate and the Monte Carlo variance sums their squares, which overflow
    below a rate of about 2.7e-153 and underflow to zero above about 1e154;
    the bounds leave some 50 orders of margin on each side."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise DomainError(f"{name} must be a number, got {_shown(value)}")
    # an int or a fraction is compared before float(), which overflows past the
    # float range; any other real as a float, not in a narrower width of its own
    if not isinstance(value, numbers.Rational):
        value = float(value)
    if not 0 < value < math.inf:
        raise DomainError(f"{name} must be positive and finite, got {_shown(value)}")
    if not 1e-100 <= value <= 1e100:
        raise DomainError(f"{name} must lie in [1e-100, 1e100], got {_shown(value)}")
    return float(value)


def _require_nonneg_int(value: object, name: str) -> int:
    """``value`` as a Python int, which must not be negative."""
    n = _integer(value)
    if n is None or n < 0:
        raise DomainError(f"{name} must be a non-negative integer, got {_shown(value)}")
    return n


def _require_sample_count(value: object, name: str) -> int:
    """A trial count from 1 to 2^53, as a Python int: every count up to 2^53
    is a float64 exactly, so fractions and means over the trials divide by
    the true count."""
    n = _require_positive_int(value, name)
    if n > _MAX_SAMPLES:
        raise DomainError(f"{name} must be at most 2^53, got {_shown(n)}")
    return n


def _require_replication(
    n_workers: object, n_batches: object, layout: str
) -> tuple[int, int, int]:
    """(N, B, N/B) as Python ints for a layout that gives each of the B
    batches N/B workers, so B | N."""
    n = _require_positive_int(n_workers, "n_workers")
    b = _require_positive_int(n_batches, "n_batches")
    if n % b != 0:
        raise DomainError(
            f"{layout} needs n_batches={_shown(b)} dividing n_workers={_shown(n)}"
        )
    return n, b, n // b


def _require_iterable(values: object, name: str) -> Iterable:
    """``values`` itself, possibly empty; a string, a scalar or a mapping,
    which would give its keys, is refused."""
    if isinstance(values, (str, bytes, Mapping)) or not isinstance(values, Iterable):
        raise DomainError(f"{name} must be a list, got {_shown(values)}")
    return values


def _require_ordered(values: object, name: str) -> Iterable:
    """``values`` as ``_require_iterable`` takes it, but a set, such as a
    dict's keys, is refused too: it would drop or reorder repeated entries."""
    if isinstance(values, Set):
        raise DomainError(f"{name} must be a list, got {_shown(values)}")
    return _require_iterable(values, name)


def _require_list(
    values: object, name: str, require_entry: Callable[[object, str], object] | None = None
) -> tuple:
    """``values`` as a non-empty tuple, each entry passed through ``require_entry``."""
    out = tuple(_require_iterable(values, name))
    if not out:
        raise DomainError(f"{name} must be non-empty")
    if require_entry is None:
        return out
    return tuple(require_entry(v, name) for v in out)


@dataclass(frozen=True)
class SystemParams:
    """System shape: N workers, S data blocks, B batches, per-worker rate.

    Positivity is enforced at construction, which stores the sizes as
    Python ints and the rate as a float. Divisibility depends on the
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
        for name in ("n_workers", "n_blocks", "n_batches"):
            object.__setattr__(self, name, _require_positive_int(getattr(self, name), name))
        object.__setattr__(self, "rate", _require_rate(self.rate, "rate"))


@dataclass(frozen=True)
class RecoveryStructure:
    """Worker groups defining job completion for overlapping batching.

    The job completes as soon as every worker of some group has finished.
    For a structure to be meaningful against a layout, each group's batches
    must exactly partition the block set. The layout constructors in
    ``policies`` return groups that do, next to the layout itself: a plain
    tuple whose entry w is the frozenset of worker w's block ids.
    """

    groups: tuple[frozenset[int], ...]

    def __post_init__(self) -> None:
        groups = []
        # one pass over the groups, so the first fault in group order is named
        for i, group in enumerate(_require_iterable(self.groups, "recovery structure")):
            # each worker id is checked, and made a Python int, before
            # frozenset() hashes it
            ids = _require_iterable(group, f"group {i}")
            group = frozenset(_require_nonneg_int(w, "worker id") for w in ids)
            if not group:
                raise DomainError(f"group {i} is empty")
            groups.append(group)
        if not groups:
            raise DomainError("recovery structure must have at least one group")
        object.__setattr__(self, "groups", tuple(groups))


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

    def contains(self, value: float) -> bool:
        """Whether the 95% confidence interval contains ``value``."""
        return self.ci95_low <= value <= self.ci95_high


def _require_counts(vector: Sequence[int]) -> tuple[int, ...]:
    """Per-batch replica counts as a tuple. Each is positive: a batch that no
    worker holds is never recovered, so the job could not complete."""
    counts = _require_list(_require_ordered(vector, "assignment vector"), "assignment vector")
    return tuple(_require_positive_int(c, "count") for c in counts)


def _require_groups(
    structure: RecoveryStructure | Iterable[Iterable[int]],
    n_workers: int | None = None,
) -> tuple[frozenset[int], ...]:
    """The groups of a recovery structure or of an iterable of worker sets,
    each worker id below n_workers when that is given."""
    if not isinstance(structure, RecoveryStructure):
        structure = RecoveryStructure(structure)
    groups = structure.groups
    if n_workers is not None and max(frozenset().union(*groups)) >= n_workers:
        bad = next(g for g in groups if max(g) >= n_workers)
        raise DomainError(
            f"group {_shown(sorted(bad))} references a worker >= {_shown(n_workers)}"
        )
    return groups
