"""Simulator: sampling, completion kernels, stream contract, estimators.

The Monte Carlo checks compare against exact values from the analytics
module with wide (4 standard error) bands; the acceptance suite holds the
strict 95% intervals.
"""

import functools
import itertools
import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from numpy.random import Generator, Philox, SeedSequence

import batchlat.policies as policies
import batchlat.sim as sim
from batchlat.analytics import (
    coverage_probability,
    expected_time_assignment_rational,
    expected_time_balanced,
    expected_time_cyclic,
    exact_expected_time_structure,
)
from batchlat.model import (
    DomainError,
    NoCoverageError,
    NonPositiveError,
    SystemParams,
)
from batchlat.policies import (
    PolicyKind,
    PolicySpec,
    cyclic_layout,
    replicated_nonoverlap_layout,
)
from batchlat.sim import (
    SimConfig,
    coverage_empirical,
    derive_seed,
    monte_carlo,
)


def _uniform_block(seed, start_trial, n_trials, draws_per_trial):
    """Uniforms for trials [start_trial, start_trial + n_trials), shape (n, d).

    The stream contract from the sim module docstring, read straight off the
    counter: each trial owns ceil(d/4) Philox counter blocks starting at
    trial_index * that. ``sim._chunks`` must yield exactly these blocks.
    """
    blocks = (draws_per_trial + 3) // 4
    bits = Philox(SeedSequence(seed))
    bits.advance(start_trial * blocks)
    return Generator(bits).random((n_trials, 4 * blocks))[:, :draws_per_trial]


def _estimate(policy, system, n_samples=100_000, seed=7, rate=None):
    cfg = SimConfig(
        n_samples=n_samples,
        seed=seed,
        rate=system.rate if rate is None else rate,
        policy=policy,
        system=system,
    )
    return monte_carlo(cfg)


class TestDeriveSeed:
    def test_deterministic_and_distinct(self):
        seeds = [derive_seed(12345, i) for i in range(100)]
        assert seeds == [derive_seed(12345, i) for i in range(100)]
        assert len(set(seeds)) == 100

    def test_master_matters(self):
        assert derive_seed(0, 0) != derive_seed(1, 0)

    def test_rejects_negative(self):
        with pytest.raises(DomainError):
            derive_seed(-1, 0)
        with pytest.raises(DomainError):
            derive_seed(0, -1)


class TestSampleServiceTimes:
    """The inverse-CDF transform that turns uniforms into service times."""

    def test_shape_and_positivity(self):
        u = np.random.default_rng(3).random(50)
        u[0] = 0.0
        t = sim._exponential_from_uniform(u, 2.0)
        assert t.shape == (50,)
        assert (t > 0).all()

    def test_mean_tracks_rate(self):
        n = 100_000
        t = sim._exponential_from_uniform(np.random.default_rng(21).random(n), 2.0)
        # Exp(2) has mean and sd 1/2
        assert abs(t.mean() - 0.5) < 4 * 0.5 / math.sqrt(n)

    def test_min_of_six(self):
        draws = 20_000
        u = np.random.default_rng(5).random((draws, 6))
        mins = sim._exponential_from_uniform(u, 1.0).min(axis=1)
        # min of 6 unit exponentials is Exp(6)
        assert abs(mins.mean() - 1 / 6) < 4 * (1 / 6) / math.sqrt(draws)


class TestCompletionNonoverlapping:
    """Max over batches of the replica minimum, through the fold kernel."""

    def test_hand_example(self):
        u = np.array([[5.0, 1.0, 4.0, 2.0, 3.0, 6.0]])
        assert _max_of_min(u, (2, 2, 2)).tolist() == [3.0]

    def test_uneven_runs(self):
        u = np.array([[5.0, 1.0, 4.0, 2.0, 3.0, 6.0]])
        # runs: (5,1,4) -> 1, (2,) -> 2, (3,6) -> 3
        assert _max_of_min(u, (3, 1, 2)).tolist() == [3.0]

    def test_length_mismatch_rejected(self):
        # a vector whose total is not N is refused before any trial runs
        spec = PolicySpec(PolicyKind.EXPLICIT_VECTOR, vector=(3, 2, 2))
        with pytest.raises(DomainError):
            SimConfig(n_samples=100, seed=1, rate=1.0, policy=spec, system=SystemParams(6, 6, 3))


class TestCompletionGroups:
    """Min over recovery groups of the group maximum, through the fold kernel."""

    def test_hand_example(self):
        u = np.array([[0.5, 0.3, 0.7, 0.9]])
        assert _min_of_max(u, [[0, 2], [1, 3]]).tolist() == [0.7]

    def test_single_group_is_max(self):
        u = np.array([[0.5, 0.3, 0.7]])
        assert _min_of_max(u, [[0, 1, 2]]).tolist() == [0.7]


class TestMonteCarloDeterminism:
    def test_bit_identical_reruns(self):
        system = SystemParams(6, 6, 3)
        est_a = _estimate(PolicySpec(PolicyKind.BALANCED), system, n_samples=20_000)
        est_b = _estimate(PolicySpec(PolicyKind.BALANCED), system, n_samples=20_000)
        assert est_a == est_b

    def test_seed_changes_result(self):
        system = SystemParams(6, 6, 3)
        est_a = _estimate(PolicySpec(PolicyKind.BALANCED), system, seed=1)
        est_b = _estimate(PolicySpec(PolicyKind.BALANCED), system, seed=2)
        assert est_a.mean != est_b.mean

    def test_chunking_does_not_change_the_stream(self, monkeypatch):
        system = SystemParams(6, 6, 3)
        specs = [
            PolicySpec(PolicyKind.BALANCED),
            PolicySpec(PolicyKind.EXPLICIT_VECTOR, vector=(3, 2, 1)),
            PolicySpec(PolicyKind.CYCLIC),
            PolicySpec(PolicyKind.RANDOM_CC),
        ]

        def run():
            estimates = [_estimate(spec, system, n_samples=5_000) for spec in specs]
            return estimates, coverage_empirical(3, 6, 5_000, 7)

        default = sim._CHUNK_BYTES
        monkeypatch.setattr(sim, "_CHUNK_BYTES", 1 << 40)  # every run in one chunk
        baseline = run()
        # one trial per chunk, 512 trials of 6 uniforms, and the default
        for chunk_bytes in (8, 1 << 15, default):
            monkeypatch.setattr(sim, "_CHUNK_BYTES", chunk_bytes)
            assert run() == baseline, chunk_bytes

    @pytest.mark.parametrize("draws", [1, 4, 5, 6, 24, 52])
    @pytest.mark.parametrize("chunk_bytes", [8, 4096, sim._CHUNK_BYTES])
    def test_chunks_follow_counter_offsets(self, monkeypatch, draws, chunk_bytes):
        monkeypatch.setattr(sim, "_CHUNK_BYTES", chunk_bytes)
        per_chunk = max(1, chunk_bytes // (32 * ((draws + 3) // 4)))
        n = 2 * per_chunk + per_chunk // 2 + 1  # several chunks, the last one ragged
        seed = 11
        firsts = []
        lo = 0  # each chunk starts where the chunks before it end
        for u in sim._chunks(seed, n, draws):
            assert u.shape == (min(per_chunk, n - lo), draws)
            assert np.array_equal(u, _uniform_block(seed, lo, len(u), draws))
            firsts.append(lo)
            lo += len(u)
        assert firsts == list(range(0, n, per_chunk))
        assert lo == n

    def test_prefix_property(self):
        # the first trials of a longer run are the same trials
        columns = [np.array(sorted(g)) for g in cyclic_layout(6, 3)[1].groups]

        def run(n):
            return np.concatenate(
                [_min_of_max(u, columns) for u in sim._chunks(7, n, 6)]
            )

        assert np.array_equal(run(100), run(1000)[:100])


def _max_of_min(u, counts):
    """The fold kernel on runs of consecutive columns, as monte_carlo calls it."""
    ends = itertools.accumulate(counts)
    runs = [range(end - c, end) for c, end in zip(counts, ends)]
    return sim._run_fold(u, runs, np.minimum, np.maximum, 0.0)


def _min_of_max(u, columns):
    """The fold kernel on recovery groups, as monte_carlo calls it."""
    return sim._run_fold(u, columns, np.maximum, np.minimum, np.inf)


# Transform-first reference kernels: every uniform becomes a service time
# before any min or max. The production kernels reduce the uniforms first.
def _ref_fixed_counts(u, counts, rate):
    t = sim._exponential_from_uniform(u, rate)
    if len(set(counts)) == 1:
        mins = t.reshape(len(t), len(counts), counts[0]).min(axis=2)
    else:
        mins = np.minimum.reduceat(t, np.cumsum((0,) + counts[:-1]), axis=1)
    return mins.max(axis=1)


def _ref_groups(u, columns, rate):
    t = sim._exponential_from_uniform(u, rate)
    best = t[:, columns[0]].max(axis=1)
    for cols in columns[1:]:
        np.minimum(best, t[:, cols].max(axis=1), out=best)
    return best


def _ref_random_cc(u, n_batches, rate):
    n_workers = u.shape[1] // 2
    ids = np.minimum((u[:, :n_workers] * n_batches).astype(np.int64), n_batches - 1)
    t = sim._exponential_from_uniform(u[:, n_workers:], rate)
    mins = np.full((len(u), n_batches), np.inf)
    np.minimum.at(mins, (np.arange(len(u))[:, None], ids), t)
    return mins.max(axis=1)


def _transformed(v, rate):
    finite = np.isfinite(v)
    v[finite] = sim._exponential_from_uniform(v[finite], rate)
    return v


class TestReduceBeforeTransform:
    """Kernels reduce uniforms, then one transform per trial; the result must
    be bit-identical to transforming every uniform first."""

    RATES = (1e-3, 1.0, 7.3, 1e300)

    @staticmethod
    def _chunk(seed, n_trials, draws):
        u = _uniform_block(seed, 0, n_trials, draws)
        u[::97] = 0.0  # whole rows at 0.0: every transform takes the tiny clamp
        u[1::89, ::3] = 0.0
        return u

    @pytest.mark.parametrize(
        "counts", [(10,) * 5, (5,) * 10, (2,) * 25, (3, 2, 1)],
        ids=["balanced-50-5", "balanced-50-10", "balanced-50-25", "vector-3-2-1"],
    )
    def test_fixed_counts(self, counts):
        for seed in range(2):
            u = self._chunk(seed, 2000, sum(counts))
            for rate in self.RATES:
                got = _transformed(_max_of_min(u, counts), rate)
                assert np.array_equal(got, _ref_fixed_counts(u, counts, rate))

    @pytest.mark.parametrize(
        "layout", [cyclic_layout(50, 5), cyclic_layout(50, 10), cyclic_layout(50, 25),
                   replicated_nonoverlap_layout(16, 4)],
        ids=["cyclic-50-5", "cyclic-50-10", "cyclic-50-25", "replicated-16-4"],
    )
    def test_groups(self, layout):
        layout, structure = layout
        columns = [sorted(g) for g in structure.groups]
        for seed in range(2):
            u = self._chunk(seed, 2000, len(layout.batches))
            for rate in self.RATES:
                got = _transformed(_min_of_max(u, columns), rate)
                assert np.array_equal(got, _ref_groups(u, columns, rate))

    def test_random_cc(self):
        for seed in range(2):
            u = self._chunk(seed, 2000, 24)
            for rate in self.RATES:
                got = _transformed(sim._run_random_cc(u, 3), rate)
                want = _ref_random_cc(u, 3, rate)
                assert np.isinf(want).any() and np.isfinite(want).any()
                assert np.array_equal(got, want)


class TestMonteCarloAccuracy:
    def test_balanced(self):
        est = _estimate(PolicySpec(PolicyKind.BALANCED), SystemParams(6, 6, 3))
        assert abs(est.mean - 11 / 12) < 4 * est.std_error
        assert est.coverage_rate == 1.0
        assert est.n_samples == 100_000

    def test_explicit_vector(self):
        spec = PolicySpec(PolicyKind.EXPLICIT_VECTOR, vector=(3, 2, 1))
        est = _estimate(spec, SystemParams(6, 6, 3))
        assert abs(est.mean - 73 / 60) < 4 * est.std_error

    def test_cyclic(self):
        est = _estimate(PolicySpec(PolicyKind.CYCLIC), SystemParams(6, 6, 3))
        assert abs(est.mean - 73 / 60) < 4 * est.std_error

    def test_cyclic_builds_no_layout(self, monkeypatch):
        # the groups come from the stride rule, not from the layout's N windows
        def refuse(*args):
            raise AssertionError("monte_carlo built the cyclic layout")

        spec, system = PolicySpec(PolicyKind.CYCLIC), SystemParams(12, 12, 4)
        expected = _estimate(spec, system, n_samples=20_000)
        monkeypatch.setattr(policies, "cyclic_layout", refuse)
        assert _estimate(spec, system, n_samples=20_000) == expected

    def test_grouped_overlap(self):
        est = _estimate(PolicySpec(PolicyKind.GROUPED_OVERLAP), SystemParams(6, 6, 3))
        assert abs(est.mean - 21 / 20) < 4 * est.std_error

    def test_explicit_structure(self):
        _, structure = cyclic_layout(8, 4)
        spec = PolicySpec(PolicyKind.EXPLICIT_STRUCTURE, groups=structure.groups)
        est = _estimate(spec, SystemParams(8, 8, 4))
        exact = exact_expected_time_structure(structure, 8)
        assert abs(est.mean - exact) < 4 * est.std_error

    def test_rate_two(self):
        est = _estimate(
            PolicySpec(PolicyKind.BALANCED), SystemParams(6, 6, 3, 2.0), rate=2.0
        )
        assert abs(est.mean - 11 / 24) < 4 * est.std_error

    def test_larger_balanced(self):
        est = _estimate(PolicySpec(PolicyKind.BALANCED), SystemParams(50, 50, 25))
        assert abs(est.mean - expected_time_balanced(50, 25)) < 4 * est.std_error

    def test_larger_cyclic(self):
        est = _estimate(PolicySpec(PolicyKind.CYCLIC), SystemParams(50, 50, 25))
        assert abs(est.mean - expected_time_cyclic(50, 25)) < 4 * est.std_error


@pytest.mark.parametrize("kind, layout", [
    (PolicyKind.BALANCED, replicated_nonoverlap_layout),
    (PolicyKind.CYCLIC, cyclic_layout),
], ids=["balanced", "cyclic"])
@pytest.mark.parametrize("n, b", [(6, 3), (12, 4)])
def test_kind_matches_its_explicit_structure(kind, layout, n, b):
    """A kind and its layout's recovery groups give equal estimates and equal
    exact floats: per trial, the max over batches of replica minima is the
    min over groups of group maxima, and both are one of the same uniforms."""
    structure = PolicySpec(PolicyKind.EXPLICIT_STRUCTURE, groups=layout(n, b)[1].groups)
    cfgs = [
        SimConfig(n_samples=20_000, seed=3, rate=0.7, policy=spec,
                  system=spec.system(n, b))
        for spec in (PolicySpec(kind), structure)
    ]
    assert monte_carlo(cfgs[0]) == monte_carlo(cfgs[1])
    assert cfgs[0].plan.exact(0.7) == cfgs[1].plan.exact(0.7)


class TestRandomCc:
    def test_coverage_rate_and_conditional_mean(self):
        est = _estimate(PolicySpec(PolicyKind.RANDOM_CC), SystemParams(6, 6, 3))
        p = float(coverage_probability(3, 6))
        sigma = math.sqrt(p * (1 - p) / est.n_samples)
        assert abs(est.coverage_rate - p) < 4 * sigma

        # exact conditional mean: average the closed form over all covering
        # assignments, each of the B^N draws being equally likely
        total = Fraction(0)
        covering = 0
        cache: dict[tuple[int, ...], Fraction] = {}
        for draw in itertools.product(range(3), repeat=6):
            counts = tuple(sorted(Counter(draw).values()))
            if len(counts) < 3:
                continue
            covering += 1
            if counts not in cache:
                cache[counts] = expected_time_assignment_rational(counts)
            total += cache[counts]
        conditional = total / covering
        assert covering == 540
        assert abs(est.mean - float(conditional)) < 4 * est.std_error
        # redundancy helps, but a random assignment is never better than balanced
        assert float(conditional) > 11 / 12

    def test_all_uncovered_raises(self):
        # two workers can never cover three batches
        cfg = SimConfig(
            n_samples=1000,
            seed=3,
            rate=1.0,
            policy=PolicySpec(PolicyKind.RANDOM_CC),
            system=SystemParams(2, 3, 3),
        )
        with pytest.raises(NoCoverageError):
            monte_carlo(cfg)

    def test_zero_count_vector_rejected_upfront(self):
        # the vector type refuses it, before any config or run exists
        with pytest.raises(NonPositiveError, match="^count must be positive, got 0$"):
            PolicySpec(PolicyKind.EXPLICIT_VECTOR, vector=(2, 0, 4))


class TestEstimateEdges:
    def test_single_sample(self):
        est = _estimate(
            PolicySpec(PolicyKind.BALANCED), SystemParams(6, 6, 3), n_samples=1
        )
        assert est.std_error == 0.0
        assert est.ci95_low == est.mean == est.ci95_high
        assert est.n_samples == 1

    def test_interval_uses_normal_quantile(self):
        est = _estimate(
            PolicySpec(PolicyKind.BALANCED), SystemParams(6, 6, 3), n_samples=10_000
        )
        half = 1.959963984540054 * est.std_error
        assert est.ci95_high - est.mean == pytest.approx(half, rel=1e-12)
        assert est.mean - est.ci95_low == pytest.approx(half, rel=1e-12)

    def test_rate_bounded(self):
        # squared deviations overflow below a rate of about 2.7e-153 and
        # vanish above about 1e154; inside the bounds the moments stay finite
        system = SystemParams(6, 6, 3)
        for rate in (1e-160, 1e-101, 1e101, 1e300):
            with pytest.raises(DomainError, match=r"^rate must lie in \[1e-100, 1e100\], got "):
                _estimate(PolicySpec(PolicyKind.BALANCED), system, rate=rate)
        for rate in (1e-100, 1e100):
            est = _estimate(PolicySpec(PolicyKind.BALANCED), system, n_samples=1000, rate=rate)
            assert 0 < est.std_error < est.mean
            assert abs(est.mean - 11 / 12 / rate) < 4 * est.std_error

    def test_config_validation(self):
        with pytest.raises(DomainError):
            SimConfig(
                n_samples=0,
                seed=1,
                rate=1.0,
                policy=PolicySpec(PolicyKind.BALANCED),
                system=SystemParams(6, 6, 3),
            )
        with pytest.raises(DomainError):
            SimConfig(
                n_samples=100,
                seed=-1,
                rate=1.0,
                policy=PolicySpec(PolicyKind.BALANCED),
                system=SystemParams(6, 6, 3),
            )
        with pytest.raises(DomainError):
            SimConfig(
                n_samples=2**53 + 1,
                seed=1,
                rate=1.0,
                policy=PolicySpec(PolicyKind.BALANCED),
                system=SystemParams(6, 6, 3),
            )
        assert SimConfig(
            n_samples=2**53,
            seed=1,
            rate=1.0,
            policy=PolicySpec(PolicyKind.BALANCED),
            system=SystemParams(6, 6, 3),
        ).n_samples == 2**53
        # shape mismatch surfaces at construction, not at run time
        with pytest.raises(DomainError):
            SimConfig(
                n_samples=100,
                seed=1,
                rate=1.0,
                policy=PolicySpec(PolicyKind.EXPLICIT_VECTOR, vector=(2, 2)),
                system=SystemParams(6, 6, 3),
            )


def _one_pass_estimate(cfg):
    """(mean, std_error, coverage_rate) aggregated the one-pass way: every
    trial's time materialized from ``sim._chunks`` and the kernel, then
    ``np.mean`` and ``np.std(ddof=1)``."""
    plan, system = cfg.plan, cfg.system
    draws = system.n_workers
    if plan.counts is not None:
        kernel = functools.partial(_max_of_min, counts=plan.counts)
    elif plan.groups is not None:
        kernel = functools.partial(_min_of_max, columns=[sorted(g) for g in plan.groups()])
    else:
        draws *= 2
        kernel = functools.partial(sim._run_random_cc, n_batches=system.n_batches)
    results = np.concatenate(
        [kernel(u) for u in sim._chunks(cfg.seed, cfg.n_samples, draws)]
    )
    values = _transformed(results, cfg.rate)
    values = values[np.isfinite(values)]
    std = float(np.std(values, ddof=1)) if len(values) > 1 else 0.0
    return float(np.mean(values)), std / math.sqrt(len(values)), len(values) / cfg.n_samples


class TestStreamedMoments:
    """Block-merged moments agree with the one-pass aggregation over all
    results, at block boundaries and with uncovered random-cc trials."""

    SYSTEMS = [
        (PolicySpec(PolicyKind.BALANCED), SystemParams(6, 6, 3)),
        (PolicySpec(PolicyKind.CYCLIC), SystemParams(12, 12, 4)),
        (
            PolicySpec(
                PolicyKind.EXPLICIT_STRUCTURE,
                groups=replicated_nonoverlap_layout(16, 4)[1].groups,
            ),
            SystemParams(16, 16, 4),
        ),
        # leaves about a quarter of its trials uncovered (p = 540/729)
        (PolicySpec(PolicyKind.RANDOM_CC), SystemParams(6, 6, 3)),
    ]

    @staticmethod
    def _check(cfg):
        got = monte_carlo(cfg)
        mean, std_error, coverage_rate = _one_pass_estimate(cfg)
        assert got.mean == pytest.approx(mean, rel=1e-13, abs=0)
        assert got.std_error == pytest.approx(std_error, rel=1e-13, abs=0)
        assert got.coverage_rate == coverage_rate
        return got

    @pytest.mark.parametrize(
        "policy,system", SYSTEMS, ids=["balanced", "cyclic", "structure-256", "random-cc"]
    )
    @pytest.mark.parametrize(
        "n_samples",
        [1, 2, sim._BLOCK - 1, sim._BLOCK, sim._BLOCK + 1, 3 * sim._BLOCK + 5],
    )
    def test_matches_one_pass(self, policy, system, n_samples):
        self._check(SimConfig(n_samples, 13, 1.7, policy, system))

    def test_single_covered_trial(self):
        # 12 workers cover 12 batches with probability 12!/12^12, about
        # 5.4e-5; at this seed only trial 16 869 is covered, in the third
        # block, after two blocks with none
        cfg = SimConfig(
            3 * sim._BLOCK + 5, 13, 1.0, PolicySpec(PolicyKind.RANDOM_CC),
            SystemParams(12, 12, 12),
        )
        est = self._check(cfg)
        assert est.coverage_rate == 1 / cfg.n_samples
        assert est.std_error == 0.0


class TestCoverageEmpirical:
    def test_certain_coverage(self):
        assert coverage_empirical(1, 1, 1000, seed=0) == 1.0

    def test_two_by_two(self):
        p_hat = coverage_empirical(2, 2, 100_000, seed=4)
        sigma = math.sqrt(0.25 / 100_000)
        assert abs(p_hat - 0.5) < 4 * sigma

    def test_three_by_six(self):
        p = float(coverage_probability(3, 6))
        p_hat = coverage_empirical(3, 6, 100_000, seed=4)
        sigma = math.sqrt(p * (1 - p) / 100_000)
        assert abs(p_hat - p) < 4 * sigma

    def test_deterministic(self):
        assert coverage_empirical(3, 6, 10_000, seed=11) == coverage_empirical(
            3, 6, 10_000, seed=11
        )

    def test_impossible_coverage(self):
        assert coverage_empirical(4, 3, 1000, seed=0) == 0.0

    def test_sample_count_bounded_at_2_53(self, monkeypatch):
        class Sampled(Exception):
            pass

        def no_sampling(*args):
            raise Sampled

        monkeypatch.setattr(sim, "_chunks", no_sampling)
        with pytest.raises(DomainError):
            coverage_empirical(3, 6, 2**53 + 1, 0)
        # 2^53 itself passes the checks and reaches the sampler
        with pytest.raises(Sampled):
            coverage_empirical(3, 6, 2**53, 0)

    @pytest.mark.parametrize("n_batches,n_workers", [
        (1, 6), (3, 6), (6, 6), (7, 6), (10, 20), (20, 20), (1, 1), (2, 1),
    ])
    def test_matches_sort_and_diff_count(self, monkeypatch, n_batches, n_workers):
        # Reference: sort each row's batch ids and count the distinct ones.
        def hits(u):
            ids = np.minimum((u * n_batches).astype(np.int64), n_batches - 1)
            ids.sort(axis=1)
            distinct = (np.diff(ids, axis=1) != 0).sum(axis=1) + 1
            return int((distinct == n_batches).sum())

        monkeypatch.setattr(sim, "_CHUNK_BYTES", 1 << 17)  # 819 to 4096 trials
        n, seed = 10_000, 3
        want = sum(hits(u) for u in sim._chunks(seed, n, n_workers))
        assert coverage_empirical(n_batches, n_workers, n, seed) == want / n


class TestBoundedMemory:
    """A run holds about one chunk of uniforms, the kernel's output for it
    and one aggregation block, whatever the trial width or count: 200 000
    trials at N=50 stay well under 8 MB (a single 65 536-trial chunk alone
    would be 27 MB), and 10^6 narrow trials under 4 MiB (one 8-byte result
    per trial alone would be 7.6 MiB)."""

    N_TRIALS = 200_000
    BOUND = 8 * 2**20

    def test_monte_carlo(self, traced_peak):
        cfg = SimConfig(
            n_samples=self.N_TRIALS, seed=5, rate=1.0,
            policy=PolicySpec(PolicyKind.BALANCED), system=SystemParams(50, 50, 5),
        )
        assert traced_peak(lambda: monte_carlo(cfg)) < self.BOUND

    @pytest.mark.parametrize(
        "policy,system",
        [
            (PolicySpec(PolicyKind.BALANCED), SystemParams(6, 6, 3)),
            (PolicySpec(PolicyKind.RANDOM_CC), SystemParams(12, 12, 3)),
        ],
        ids=["balanced-6-3", "random-cc-12-3"],
    )
    def test_monte_carlo_memory_does_not_grow_with_trials(self, traced_peak, policy, system):
        cfg = SimConfig(n_samples=10**6, seed=5, rate=1.0, policy=policy, system=system)
        assert traced_peak(lambda: monte_carlo(cfg)) < 4 * 2**20

    def test_coverage_empirical(self, traced_peak):
        assert traced_peak(lambda: coverage_empirical(10, 20, self.N_TRIALS, 5)) < self.BOUND
