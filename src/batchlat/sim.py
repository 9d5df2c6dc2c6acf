"""Monte Carlo engine for completion-time estimation.

Random stream contract
----------------------
All sampling uses numpy's Philox 4x64 counter-based generator keyed by
``SeedSequence(seed)``. One Philox counter block yields four float64 draws.
A run consumes a fixed number d of uniforms per trial (d = N for the
deterministic policies, d = 2N for random-cc: N batch draws followed by N
service draws), padded up to whole counter blocks. Trial t always reads
from counter offset t * ceil(d/4), so chunking, chunk size, and thread
scheduling cannot change results: the same (seed, policy, shape, rate,
n_samples) is bit-for-bit reproducible.

Service times come from the inverse CDF, ``-log1p(-u) / rate`` with u
uniform on [0, 1), clamped to the smallest positive normal float so samples
are strictly positive. Aggregation happens over fully materialized result
arrays in trial order, so the estimate does not depend on how trials were
chunked. Ties in finish order, which can occur in float, are broken by
worker id.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from collections.abc import Iterable, Sequence

import numpy as np
from numpy.random import Generator, Philox, SeedSequence

from .model import (
    AssignmentVector,
    BatchLayout,
    CompletionEstimate,
    ComplexityGuardError,
    DomainError,
    NoCoverageError,
    RecoveryStructure,
    ServiceSample,
    SystemParams,
    UncoveredBatchError,
    _as_counts,
    _as_groups,
    _require_positive_int,
    _require_positive_real,
    _require_seed,
)
from .policies import PolicySpec, resolve, validate_policy

__all__ = [
    "SimConfig",
    "MAX_EXACT_COVER_BLOCKS",
    "derive_seed",
    "sample_service_times",
    "completion_time_nonoverlapping",
    "completion_time_groups",
    "completion_time_exact_cover",
    "monte_carlo",
    "coverage_empirical",
]

#: Refuse exact-cover completion checks beyond this many blocks (bitmask DP).
MAX_EXACT_COVER_BLOCKS = 30

_Z95 = 1.959963984540054  # two-sided 95% standard normal quantile
_TINY = float(np.finfo(np.float64).tiny)
_TRIALS_PER_CHUNK = 1 << 16


def derive_seed(master_seed: int, index: int) -> int:
    """Deterministic 64-bit child seed for stream ``index`` under ``master_seed``.

    Children of distinct indices are statistically independent, so grid
    points or test cases can each own a stream derived from one master seed.
    """
    _require_seed(master_seed, "master_seed")
    if isinstance(index, bool) or not isinstance(index, int) or index < 0:
        raise DomainError(f"index must be a non-negative integer, got {index!r}")
    return int(SeedSequence([master_seed, index]).generate_state(1, np.uint64)[0])


def _uniform_block(seed: int, start_trial: int, n_trials: int, draws_per_trial: int) -> np.ndarray:
    """Uniforms for trials [start_trial, start_trial + n_trials), shape (n, d).

    Implements the stream contract from the module docstring: each trial
    owns ceil(d/4) Philox counter blocks starting at trial_index * that.
    """
    blocks = (draws_per_trial + 3) // 4
    bits = Philox(SeedSequence(seed))
    bits.advance(start_trial * blocks)
    return Generator(bits).random((n_trials, 4 * blocks))[:, :draws_per_trial]


def _exponential_from_uniform(u: np.ndarray, rate: float) -> np.ndarray:
    out = -np.log1p(-u)
    out /= rate
    # u == 0.0 maps to 0.0; clamp so service times stay strictly positive.
    np.maximum(out, _TINY, out=out)
    return out


def sample_service_times(n_workers: int, rate: float, rng: Generator) -> ServiceSample:
    """Draw N i.i.d. exponential service times at the given rate from ``rng``."""
    _require_positive_int(n_workers, "n_workers")
    rate = _require_positive_real(rate, "rate")
    times = _exponential_from_uniform(rng.random(n_workers), rate)
    return ServiceSample(tuple(float(t) for t in times))


def completion_time_nonoverlapping(
    vector: AssignmentVector | Sequence[int], sample: ServiceSample
) -> float:
    """Completion time of one service realization under a replica-count vector.

    The sample is split into consecutive runs, run i holding the c_i
    replicas of batch i; the result is the max over batches of each run's
    min. Raises UncoveredBatchError when some count is zero.
    """
    counts = _as_counts(vector)
    if sum(counts) != sample.n_workers:
        raise DomainError(
            f"vector assigns {sum(counts)} workers but the sample has {sample.n_workers}"
        )
    if not all(counts):
        raise UncoveredBatchError(
            "assignment leaves some batch with no worker, so the job cannot complete"
        )
    times = sample.times
    worst = 0.0
    pos = 0
    for c in counts:
        worst = max(worst, min(times[pos : pos + c]))
        pos += c
    return worst


def completion_time_groups(
    structure: RecoveryStructure | Iterable[Iterable[int]], sample: ServiceSample
) -> float:
    """Completion time under a recovery structure: min over groups of the group max."""
    groups = _as_groups(structure)
    for g in groups:
        if max(g) >= sample.n_workers:
            raise DomainError(f"group {sorted(g)} references a worker >= {sample.n_workers}")
    return min(max(sample.times[w] for w in g) for g in groups)


def _exact_cover_exists(batch_masks: Sequence[int], full: int) -> bool:
    """Whether some pairwise-disjoint selection of the masks covers ``full``."""
    distinct = set(batch_masks)
    containing: dict[int, list[int]] = {}
    for m in distinct:
        bits = m
        while bits:
            low = bits & -bits
            containing.setdefault(low.bit_length() - 1, []).append(m)
            bits ^= low
    memo: dict[int, bool] = {}

    def cover(remaining: int) -> bool:
        if remaining == 0:
            return True
        hit = memo.get(remaining)
        if hit is not None:
            return hit
        block = (remaining & -remaining).bit_length() - 1
        ok = any(
            (m & ~remaining) == 0 and cover(remaining & ~m)
            for m in containing.get(block, ())
        )
        memo[remaining] = ok
        return ok

    return cover(full)


def completion_time_exact_cover(layout: BatchLayout, sample: ServiceSample) -> float:
    """Earliest finish at which the finished batches admit an exact cover.

    Workers are replayed in finish order (ties broken by worker id); after
    each finish the set of available batches is tested for a pairwise
    disjoint selection covering every block, by memoized bitmask search.
    This generalizes both the vector and the recovery-structure semantics.
    Raises UncoveredBatchError when no exact cover exists even with all
    workers finished, and ComplexityGuardError for more than
    MAX_EXACT_COVER_BLOCKS blocks.
    """
    if layout.n_blocks > MAX_EXACT_COVER_BLOCKS:
        raise ComplexityGuardError(
            f"exact-cover search over {layout.n_blocks} blocks exceeds the "
            f"S <= {MAX_EXACT_COVER_BLOCKS} guard; estimate by Monte Carlo instead"
        )
    if sample.n_workers != layout.n_workers:
        raise DomainError(
            f"layout has {layout.n_workers} workers but the sample has {sample.n_workers}"
        )
    full = (1 << layout.n_blocks) - 1
    masks = [sum(1 << b for b in batch) for batch in layout.batches]
    order = sorted(range(layout.n_workers), key=lambda w: (sample.times[w], w))
    finished: list[int] = []
    for w in order:
        finished.append(masks[w])
        if _exact_cover_exists(finished, full):
            return sample.times[w]
    raise UncoveredBatchError("no exact cover of the blocks exists in this layout")


@dataclass(frozen=True)
class SimConfig:
    """One Monte Carlo run: trial count, master seed, rate, policy, system.

    ``rate`` is the service rate actually used for sampling; construct
    ``system`` with the same rate to keep the record consistent.
    """

    n_samples: int
    seed: int
    rate: float
    policy: PolicySpec
    system: SystemParams

    def __post_init__(self) -> None:
        _require_positive_int(self.n_samples, "n_samples")
        _require_seed(self.seed)
        _require_positive_real(self.rate, "rate")
        if not isinstance(self.policy, PolicySpec):
            raise DomainError(f"policy must be a PolicySpec, got {self.policy!r}")
        if not isinstance(self.system, SystemParams):
            raise DomainError(f"system must be SystemParams, got {self.system!r}")
        validate_policy(self.policy, self.system)


def _run_fixed_counts(seed: int, n: int, counts: tuple[int, ...], rate: float) -> np.ndarray:
    n_workers = sum(counts)
    uniform = len(set(counts)) == 1
    if not uniform:
        starts = np.cumsum((0,) + counts[:-1])
    out = np.empty(n)
    for lo in range(0, n, _TRIALS_PER_CHUNK):
        m = min(_TRIALS_PER_CHUNK, n - lo)
        t = _exponential_from_uniform(_uniform_block(seed, lo, m, n_workers), rate)
        if uniform:
            mins = t.reshape(m, len(counts), counts[0]).min(axis=2)
        else:
            mins = np.minimum.reduceat(t, starts, axis=1)
        out[lo : lo + m] = mins.max(axis=1)
    return out


def _run_groups(
    seed: int, n: int, n_workers: int, groups: Sequence[frozenset[int]], rate: float
) -> np.ndarray:
    columns = [np.fromiter(sorted(g), dtype=np.int64) for g in groups]
    out = np.empty(n)
    for lo in range(0, n, _TRIALS_PER_CHUNK):
        m = min(_TRIALS_PER_CHUNK, n - lo)
        t = _exponential_from_uniform(_uniform_block(seed, lo, m, n_workers), rate)
        best: np.ndarray | None = None
        for cols in columns:
            group_max = t[:, cols].max(axis=1)
            best = group_max if best is None else np.minimum(best, group_max)
        assert best is not None
        out[lo : lo + m] = best
    return out


def _run_random_cc(
    seed: int, n: int, n_workers: int, n_batches: int, rate: float
) -> tuple[np.ndarray, np.ndarray]:
    out = np.empty(n)
    covered = np.empty(n, dtype=bool)
    for lo in range(0, n, _TRIALS_PER_CHUNK):
        m = min(_TRIALS_PER_CHUNK, n - lo)
        u = _uniform_block(seed, lo, m, 2 * n_workers)
        ids = np.minimum(
            (u[:, :n_workers] * n_batches).astype(np.int64), n_batches - 1
        )
        t = _exponential_from_uniform(u[:, n_workers:], rate)
        mins = np.full((m, n_batches), np.inf)
        flat_idx = (np.arange(m, dtype=np.int64)[:, None] * n_batches + ids).ravel()
        np.minimum.at(mins.reshape(-1), flat_idx, t.ravel())
        covered[lo : lo + m] = np.isfinite(mins).all(axis=1)
        out[lo : lo + m] = mins.max(axis=1)
    return out, covered


def monte_carlo(cfg: SimConfig) -> CompletionEstimate:
    """Estimate expected completion time over ``cfg.n_samples`` seeded trials.

    For random-cc the assignment is re-drawn every trial; uncovered trials
    are excluded from the mean and reported through ``coverage_rate``
    instead, since a draw that misses a batch yields no result at all. The
    95% interval is the normal approximation from the sample standard
    deviation over completed trials. Identical configs produce bit-identical
    estimates.
    """
    plan = resolve(cfg.policy, cfg.system)
    n = cfg.n_samples
    n_workers = cfg.system.n_workers
    covered: np.ndarray | None = None
    if plan.counts is not None:
        if not all(plan.counts):
            raise NoCoverageError(
                "assignment leaves some batch with no worker; no trial can complete"
            )
        results = _run_fixed_counts(cfg.seed, n, plan.counts, cfg.rate)
    elif plan.groups is not None:
        results = _run_groups(cfg.seed, n, n_workers, plan.groups(), cfg.rate)
    else:
        results, covered = _run_random_cc(
            cfg.seed, n, n_workers, cfg.system.n_batches, cfg.rate
        )

    if covered is None:
        values = results
        n_covered = n
        coverage_rate = 1.0
    else:
        n_covered = int(covered.sum())
        coverage_rate = n_covered / n
        if n_covered == 0:
            raise NoCoverageError(
                f"none of the {n} trials covered all {cfg.system.n_batches} batches"
            )
        values = results[covered]
    mean = float(values.mean())
    std = float(values.std(ddof=1)) if n_covered > 1 else 0.0
    std_error = std / math.sqrt(n_covered)
    half = _Z95 * std_error
    return CompletionEstimate(
        mean=mean,
        std_error=std_error,
        ci95_low=mean - half,
        ci95_high=mean + half,
        n_samples=n,
        seed=cfg.seed,
        coverage_rate=coverage_rate,
    )


def coverage_empirical(n_batches: int, n_workers: int, n_samples: int, seed: int) -> float:
    """Fraction of trials in which N uniform draws hit every one of B batches."""
    _require_positive_int(n_batches, "n_batches")
    _require_positive_int(n_workers, "n_workers")
    _require_positive_int(n_samples, "n_samples")
    _require_seed(seed)
    hits = 0
    for lo in range(0, n_samples, _TRIALS_PER_CHUNK):
        m = min(_TRIALS_PER_CHUNK, n_samples - lo)
        u = _uniform_block(seed, lo, m, n_workers)
        ids = np.minimum((u * n_batches).astype(np.int64), n_batches - 1)
        ids.sort(axis=1)
        distinct = (np.diff(ids, axis=1) != 0).sum(axis=1) + 1
        hits += int((distinct == n_batches).sum())
    return hits / n_samples
