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
n_samples) is bit-for-bit reproducible. The chunking lives in one generator,
``_chunks``; each policy's kernel maps one chunk's uniforms to one uniform
per trial.

Service times come from the inverse CDF, ``-log1p(-u) / rate`` with u
uniform on [0, 1), clamped to the smallest positive normal float so samples
are strictly positive. Every completion rule is a min or max over service
times, so the kernels take those mins and maxes over the uniforms and
``monte_carlo`` runs the transform once per trial instead of once per
worker. That is exact, not an approximation: u -> -log1p(-u) is monotone
non-decreasing, dividing by a positive rate and clamping from below keep
it so, and a monotone non-decreasing map commutes with min and max, so the
transformed result is bit-identical to reducing transformed samples.
Aggregation happens over fully materialized result arrays in trial order,
so the estimate does not depend on how trials were chunked. A random-cc
trial whose draw misses a batch has completion time ``inf`` (the max over a
batch minimum that is never filled) and is never transformed; the finite
entries are the covered trials. Ties in finish order, which can occur in
float, are broken by worker id.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from collections.abc import Iterable, Iterator, Sequence

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
from .policies import Plan, PolicySpec, resolve

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
    _require_seed(index, "index")
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


def _chunks(seed: int, n: int, draws_per_trial: int) -> Iterator[tuple[int, np.ndarray]]:
    """(first_trial, uniforms) for trials [0, n), _TRIALS_PER_CHUNK at a time."""
    for lo in range(0, n, _TRIALS_PER_CHUNK):
        yield lo, _uniform_block(seed, lo, min(_TRIALS_PER_CHUNK, n - lo), draws_per_trial)


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
    ``system`` with the same rate to keep the record consistent. ``plan`` is
    resolved once, at construction, so a policy that does not fit the system
    raises here and the run itself resolves nothing.
    """

    n_samples: int
    seed: int
    rate: float
    policy: PolicySpec
    system: SystemParams
    plan: Plan = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        _require_positive_int(self.n_samples, "n_samples")
        _require_seed(self.seed)
        _require_positive_real(self.rate, "rate")
        object.__setattr__(self, "plan", resolve(self.policy, self.system))


def _run_fixed_counts(u: np.ndarray, counts: tuple[int, ...]) -> np.ndarray:
    """Per-trial max over batches of the batch's replica minimum, in uniforms.

    Batch i's c_i replicas are the next c_i columns of u. Each batch is
    folded with elementwise minima over its columns, read as rows of the
    worker-major view u.T, so no reduction runs along a short row axis.
    """
    rows = u.T
    worst = np.zeros(len(u))  # uniforms are >= 0
    best = np.empty(len(u))
    pos = 0
    for c in counts:
        np.copyto(best, rows[pos])
        for w in range(pos + 1, pos + c):
            np.minimum(best, rows[w], out=best)
        np.maximum(worst, best, out=worst)
        pos += c
    return worst


def _run_groups(u: np.ndarray, columns: Sequence[Sequence[int]]) -> np.ndarray:
    """Per-trial min over recovery groups (worker-id lists) of the group max, in uniforms.

    Each group is folded with elementwise maxima over its workers' columns,
    read as rows of the worker-major view u.T. When the groups read workers
    more than once in all, one contiguous copy of that view makes every
    later read sequential.
    """
    rows = u.T
    if sum(map(len, columns)) > u.shape[1]:
        rows = np.ascontiguousarray(rows)
    best = np.full(len(u), np.inf)
    worst = np.empty(len(u))
    for cols in columns:
        np.copyto(worst, rows[cols[0]])
        for w in cols[1:]:
            np.maximum(worst, rows[w], out=worst)
        np.minimum(best, worst, out=best)
    return best


def _run_random_cc(u: np.ndarray, n_batches: int) -> np.ndarray:
    """Per-trial completion under a fresh draw, in uniforms: the first N
    uniforms of a row pick each worker's batch, the last N are its service
    uniforms. A trial whose draw misses a batch comes out ``inf``."""
    m, n_workers = u.shape[0], u.shape[1] // 2
    # flat index of (trial, batch) into mins, built in place
    idx = (u[:, :n_workers] * n_batches).astype(np.int64)
    np.minimum(idx, n_batches - 1, out=idx)
    idx += np.arange(0, m * n_batches, n_batches, dtype=np.int64)[:, None]
    mins = np.full((m, n_batches), np.inf)
    np.minimum.at(mins.reshape(-1), idx.ravel(), u[:, n_workers:].ravel())
    return mins.max(axis=1)


def monte_carlo(cfg: SimConfig) -> CompletionEstimate:
    """Estimate expected completion time over ``cfg.n_samples`` seeded trials.

    For random-cc the assignment is re-drawn every trial; uncovered trials
    are excluded from the mean and reported through ``coverage_rate``
    instead, since a draw that misses a batch yields no result at all. The
    95% interval is the normal approximation from the sample standard
    deviation over completed trials. Identical configs produce bit-identical
    estimates.
    """
    plan, n, rate = cfg.plan, cfg.n_samples, cfg.rate
    draws = cfg.system.n_workers
    if plan.counts is not None:
        if not all(plan.counts):
            raise NoCoverageError(
                "assignment leaves some batch with no worker; no trial can complete"
            )
        kernel = functools.partial(_run_fixed_counts, counts=plan.counts)
    elif plan.groups is not None:
        columns = [sorted(g) for g in plan.groups()]
        kernel = functools.partial(_run_groups, columns=columns)
    else:
        draws *= 2  # N batch draws, then N service draws
        kernel = functools.partial(_run_random_cc, n_batches=cfg.system.n_batches)
    results = np.empty(n)
    n_covered = 0
    for lo, u in _chunks(cfg.seed, n, draws):
        best = kernel(u)
        finite = np.isfinite(best)  # random-cc's uncovered trials stay inf
        best[finite] = _exponential_from_uniform(best[finite], rate)
        results[lo : lo + len(best)] = best
        n_covered += int(finite.sum())

    if n_covered == 0:
        raise NoCoverageError(
            f"none of the {n} trials covered all {cfg.system.n_batches} batches"
        )
    values = results if n_covered == n else results[np.isfinite(results)]
    coverage_rate = n_covered / n
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
    for _, u in _chunks(seed, n_samples, n_workers):
        ids = np.minimum((u * n_batches).astype(np.int64), n_batches - 1)
        ids.sort(axis=1)
        distinct = (np.diff(ids, axis=1) != 0).sum(axis=1) + 1
        hits += int((distinct == n_batches).sum())
    return hits / n_samples
