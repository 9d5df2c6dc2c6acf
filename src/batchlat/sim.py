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
``_chunks``, which makes one Philox generator per call and reads the stream
in order into one reused buffer of about ``_CHUNK_BYTES``, small enough to
stay in a core's L2 cache while the kernel reads it; since every trial takes
whole counter blocks, the sequential generator sits at trial t's offset
whenever trial t comes up. A kernel maps one chunk's uniforms to one uniform
per trial.
There are two: ``_run_fold`` serves both deterministic rules (the max over
batches of replica minima, and the min over recovery groups of group
maxima, as a two-level fold over worker columns), and ``_run_random_cc``
re-draws the assignment per trial. ``coverage_empirical`` maps a chunk to
its count of covering trials instead. For B <= 64 batches it holds a
trial's hit set as one unsigned word of B bits, the OR of 1 << floor(u * B)
over the trial's draws, reduced over a worker-major copy when the chunk
holds at least as many trials as workers and along each trial's row
otherwise; past 64 batches it marks an (m, B) table through
``_batch_slots``, as random-cc does. Both take floor(u * B) from the same
float multiply and clamp, so both give the same count.

Service times come from the inverse CDF, ``-log1p(-u) / rate`` with u
uniform on [0, 1), clamped to the smallest positive normal float so samples
are strictly positive. Every completion rule is a min or max over service
times, so the kernels take those mins and maxes over the uniforms and
``monte_carlo`` runs the transform once per trial instead of once per
worker. That is exact, not an approximation: u -> -log1p(-u) is monotone
non-decreasing, dividing by a positive rate and clamping from below keep
it so, and a monotone non-decreasing map commutes with min and max, so the
transformed result is bit-identical to reducing transformed samples.
A random-cc trial whose draw misses a batch has completion time ``inf``
(the max over a batch minimum that is never filled) and is never
transformed; the finite entries are the covered trials.

Aggregation streams: no run holds one value per trial. ``_blocks`` re-cuts
the kernels' per-trial output into fixed blocks of ``_BLOCK`` trials
(trials [0, _BLOCK), [_BLOCK, 2 * _BLOCK), ..., the last one short). Each
block's finite entries are transformed in place and reduced to a count, a
mean and M2, the sum of squared deviations from that mean, and the blocks
are merged in trial order by the pairwise update of Chan, Golub & LeVeque
(1983). The estimate therefore depends on ``_BLOCK`` but not on how
``_chunks`` splits the stream, and a run's memory is about one chunk plus
one block, whatever ``n_samples`` is.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from collections.abc import Iterator, Sequence

import numpy as np
from numpy.random import Generator, Philox, SeedSequence

from .model import (
    CompletionEstimate,
    ComplexityGuardError,
    DomainError,
    NoCoverageError,
    SystemParams,
    _require_nonneg_int,
    _require_positive_int,
    _require_rate,
    _require_sample_count,
    _shown,
)
from .policies import Plan, PolicySpec, resolve

__all__ = [
    "SimConfig",
    "derive_seed",
    "monte_carlo",
    "coverage_empirical",
]

_Z95 = 1.959963984540054  # two-sided 95% standard normal quantile
_TINY = float(np.finfo(np.float64).tiny)
# Bytes of uniforms per chunk, sized so the kernels read what the fill just
# wrote from one core's L2 cache (2 MiB on the 2-vCPU Xeon it was measured
# on, where 512 KiB ran the same and 12.5 MB chunks ran slower).
_CHUNK_BYTES = 1 << 20
# Trials per aggregation block. Fixed, so that block boundaries, and with
# them the rounding of the merged moments, never depend on the chunking.
_BLOCK = 1 << 13
# Workers per trial, so that memory is bounded in N too: at N = 2^20 a cyclic B = 2
# trial takes 2-4.5 s and 185 MiB traced; N = 2^64 could not be allocated at all.
_MAX_WORKERS = 1 << 20


def _require_sampled_workers(n_workers: int) -> None:
    """Refuse a trial of more than 2^20 workers, before anything is built for it."""
    if n_workers > _MAX_WORKERS:
        raise ComplexityGuardError(
            f"sampling N={_shown(n_workers)} workers exceeds the N <= 2^20 guard"
        )


def derive_seed(master_seed: int, index: int) -> int:
    """Deterministic 64-bit child seed for stream ``index`` under ``master_seed``.

    Children of distinct indices are statistically independent, so grid
    points or test cases can each own a stream derived from one master seed.
    """
    master_seed = _require_nonneg_int(master_seed, "master_seed")
    index = _require_nonneg_int(index, "index")
    return int(SeedSequence([master_seed, index]).generate_state(1, np.uint64)[0])


def _chunks(seed: int, n: int, draws_per_trial: int) -> Iterator[np.ndarray]:
    """The uniforms of trials [0, n) in trial order, about _CHUNK_BYTES at a time.

    One generator serves the whole call and every chunk is a view of one
    reused buffer, so a consumer must finish with a chunk, and keep no
    reference to it, before asking for the next.
    """
    width = 4 * ((draws_per_trial + 3) // 4)  # whole counter blocks per trial
    per_chunk = max(1, _CHUNK_BYTES // (8 * width))
    gen = Generator(Philox(SeedSequence(seed)))
    buf = np.empty((min(per_chunk, n), width))
    for lo in range(0, n, per_chunk):
        m = min(per_chunk, n - lo)
        gen.random(out=buf[:m])
        yield buf[:m, :draws_per_trial]


def _blocks(parts: Iterator[np.ndarray], size: int) -> Iterator[np.ndarray]:
    """The concatenation of the 1-D ``parts`` in consecutive blocks of
    ``size`` entries, the last one shorter if need be.

    Every block is a view of one reused buffer, which the consumer may
    overwrite; like ``_chunks``, it must be done with a block before asking
    for the next.
    """
    buf = np.empty(size)
    filled = 0
    for part in parts:
        while len(part):
            take = min(size - filled, len(part))
            buf[filled : filled + take] = part[:take]
            part = part[take:]
            filled += take
            if filled == size:
                yield buf
                filled = 0
    if filled:
        yield buf[:filled]


def _exponential_from_uniform(
    u: np.ndarray, rate: float, out: np.ndarray | None = None
) -> np.ndarray:
    """Service times -log1p(-u) / rate, clamped below; into ``out`` if given,
    which may be u itself."""
    out = np.negative(u, out=out)
    np.log1p(out, out=out)
    np.negative(out, out=out)
    out /= rate
    # u == 0.0 maps to 0.0; clamp so service times stay strictly positive.
    np.maximum(out, _TINY, out=out)
    return out


@dataclass(frozen=True)
class SimConfig:
    """One Monte Carlo run: trial count (1 to 2^53), master seed, rate,
    policy, system.

    ``rate`` is the service rate used for sampling; ``system.rate`` is not
    read. ``plan`` is resolved once, at construction, so a policy that does
    not fit the system raises here and the run itself resolves nothing.
    """

    n_samples: int
    seed: int
    rate: float
    policy: PolicySpec
    system: SystemParams
    plan: Plan = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "n_samples", _require_sample_count(self.n_samples, "n_samples"))
        object.__setattr__(self, "seed", _require_nonneg_int(self.seed, "seed"))
        object.__setattr__(self, "rate", _require_rate(self.rate, "rate"))
        object.__setattr__(self, "plan", resolve(self.policy, self.system))


def _run_fold(
    u: np.ndarray, columns: Sequence[Sequence[int]], inner: np.ufunc, outer: np.ufunc,
    start: float,
) -> np.ndarray:
    """Per-trial two-level fold of u's columns, in uniforms: ``inner``
    combines the columns of each list, and ``outer`` combines the lists'
    results, starting from ``start``.

    The columns are read as rows of the worker-major view u.T and combined
    elementwise, so no reduction runs along a short row axis. When the lists
    read some worker more than once in all, one contiguous copy of that view
    makes every later read sequential.
    """
    rows = u.T
    if sum(map(len, columns)) > u.shape[1]:
        rows = np.ascontiguousarray(rows)
    acc = np.full(len(u), start)
    part = np.empty(len(u))
    for cols in columns:
        np.copyto(part, rows[cols[0]])
        for w in cols[1:]:
            inner(part, rows[w], out=part)
        outer(acc, part, out=acc)
    return acc


def _batch_slots(u: np.ndarray, n_batches: int) -> np.ndarray:
    """Flat (trial, batch) index into an (m, B) table of each uniform of u,
    where a uniform picks batch floor(u * B) of its row's trial. It serves
    random-cc, and coverage past the 64 batches that a hit word holds."""
    m = u.shape[0]
    # floor(u * B), cast into one fresh array; u < 1, so the clip only
    # guards the rounding edge of the multiply
    idx = np.multiply(u, n_batches, out=np.empty(u.shape, np.int64), casting="unsafe")
    np.minimum(idx, n_batches - 1, out=idx)
    idx += np.arange(0, m * n_batches, n_batches, dtype=np.int64)[:, None]
    return idx


def _run_random_cc(u: np.ndarray, n_batches: int) -> np.ndarray:
    """Per-trial completion under a fresh draw, in uniforms: the first N
    uniforms of a row pick each worker's batch, the last N are its service
    uniforms. A trial whose draw misses a batch comes out ``inf``."""
    n_workers = u.shape[1] // 2
    mins = np.full((u.shape[0], n_batches), np.inf)
    slots = _batch_slots(u[:, :n_workers], n_batches)
    np.minimum.at(mins.reshape(-1), slots.ravel(), u[:, n_workers:].ravel())
    # fold the batch columns; max() along the short row axis is slower
    best = mins[:, 0].copy()
    for column in mins.T[1:]:
        np.maximum(best, column, out=best)
    return best


def monte_carlo(cfg: SimConfig) -> CompletionEstimate:
    """Estimate expected completion time over ``cfg.n_samples`` seeded trials.

    For random-cc the assignment is re-drawn every trial; uncovered trials
    are excluded from the mean and reported through ``coverage_rate``
    instead, since a draw that misses a batch yields no result at all. The
    95% interval is the normal approximation from the sample standard
    deviation over completed trials. Identical configs produce bit-identical
    estimates.

    The mean and variance are merged from fixed blocks of ``_BLOCK`` trials
    in trial order (see the module docstring), so no per-trial array is
    kept; they match a one-pass ``mean`` and ``std`` up to the last bits.
    """
    if not isinstance(cfg, SimConfig):
        raise DomainError(f"expected a SimConfig, got {_shown(cfg)}")
    plan, n, rate = cfg.plan, cfg.n_samples, cfg.rate
    draws, covers = cfg.system.n_workers, True
    _require_sampled_workers(draws)  # before any group or uniform exists
    if plan.counts is not None:
        ends = itertools.accumulate(plan.counts)
        runs = [range(end - c, end) for c, end in zip(plan.counts, ends)]
        # max over batches of the replica minimum; uniforms are >= 0
        kernel = functools.partial(
            _run_fold, columns=runs, inner=np.minimum, outer=np.maximum, start=0.0
        )
    elif plan.groups is not None:
        # min over recovery groups of the group maximum
        kernel = functools.partial(
            _run_fold, columns=[sorted(g) for g in plan.groups()],
            inner=np.maximum, outer=np.minimum, start=np.inf,
        )
    else:
        draws *= 2  # N batch draws, then N service draws
        kernel = functools.partial(_run_random_cc, n_batches=cfg.system.n_batches)
        # N draws hit at most N batches, so with B > N no trial covers
        covers = cfg.system.n_batches <= cfg.system.n_workers
    n_covered, mean, m2 = 0, 0.0, 0.0
    per_trial = map(kernel, _chunks(cfg.seed, n, draws) if covers else ())
    for block in _blocks(per_trial, min(_BLOCK, n)):
        finite = np.isfinite(block)  # random-cc's uncovered trials stay inf
        k = int(np.count_nonzero(finite))
        if k == 0:
            continue
        if k < len(block):
            block[:k] = block[finite]
        x = _exponential_from_uniform(block[:k], rate, out=block[:k])
        block_mean = float(x.mean())
        x -= block_mean
        np.square(x, out=x)
        # merge (k, block_mean, block M2 = sum of x) into the running moments
        total = n_covered + k
        delta = block_mean - mean
        mean += delta * (k / total)
        m2 += float(x.sum()) + delta * delta * (n_covered * k / total)
        n_covered = total

    if n_covered == 0:
        raise NoCoverageError(
            f"none of the {n} trials covered all {_shown(cfg.system.n_batches)} batches"
        )
    coverage_rate = n_covered / n
    std = math.sqrt(m2 / (n_covered - 1)) if n_covered > 1 else 0.0
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


def _covering_words(u: np.ndarray, n_batches: int) -> int:
    """How many trials (rows) of u hit all B <= 64 batches, each trial's hit
    set held as one word of B bits: the OR of 1 << floor(u * B) over its
    draws, in the narrowest unsigned type that holds 2^B - 1."""
    m, n = u.shape
    word = np.min_scalar_type((1 << n_batches) - 1)
    # with at least as many trials as workers, one elementwise OR per worker
    # row of a worker-major copy; with fewer, one OR along each trial's row
    by_worker = m >= n
    ids = np.empty((n, m) if by_worker else (m, n), np.uint8)
    # floor(u * B) from the same float multiply as _batch_slots, cast into
    # uint8; u < 1, so the clip only guards the rounding edge of the multiply
    np.multiply(u.T if by_worker else u, n_batches, out=ids, casting="unsafe")
    np.minimum(ids, n_batches - 1, out=ids)
    words = np.bitwise_or.reduce(np.left_shift(word.type(1), ids), axis=0 if by_worker else 1)
    return int(np.count_nonzero(words == (1 << n_batches) - 1))


def _covering_table(u: np.ndarray, n_batches: int) -> int:
    """How many trials (rows) of u hit all B batches, marked in an (m, B)
    table of hits; for B past the 64 bits of a hit word."""
    hit = np.zeros((len(u), n_batches), dtype=bool)
    hit.reshape(-1)[_batch_slots(u, n_batches)] = True
    # fold the batch columns; all() along the short row axis is slower
    covered = hit[:, 0].copy()
    for column in hit.T[1:]:
        covered &= column
    return int(covered.sum())


def coverage_empirical(n_batches: int, n_workers: int, n_samples: int, seed: int) -> float:
    """Fraction of ``n_samples`` trials (1 to 2^53) in which N uniform draws
    hit every one of B batches."""
    n_batches = _require_positive_int(n_batches, "n_batches")
    n_workers = _require_positive_int(n_workers, "n_workers")
    n_samples = _require_sample_count(n_samples, "n_samples")
    seed = _require_nonneg_int(seed, "seed")
    _require_sampled_workers(n_workers)
    if n_batches > n_workers:
        return 0.0  # N draws hit at most N batches
    count = _covering_words if n_batches <= 64 else _covering_table
    hits = sum(count(u, n_batches) for u in _chunks(seed, n_samples, n_workers))
    return hits / n_samples
