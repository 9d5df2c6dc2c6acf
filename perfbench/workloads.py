"""The benchmark's workloads: inputs built from a seed, and checked operations.

A workload is a list of operations that one pass runs back to back (a
closed loop: each call starts when the previous one has returned). Every
operation calls batchlat's public API through module attributes looked up
at call time, so the tracer's wrappers see the calls. Each operation
checks its own output against ``oracles`` and returns a fingerprint of it,
so repeated passes can be compared byte for byte.

Importing this module imports numpy and batchlat; ``run.py`` times that
import as part of set-up.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import random
from collections.abc import Callable
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

from batchlat import analytics, cli, policies, sim
from batchlat.model import SystemParams

import oracles

# The rate grid of configs/sweep_default.json: 20 log-spaced rates.
SWEEP_RATES = tuple(float(r) for r in np.logspace(-1.0, 1.0, 20))
SWEEP_SAMPLES = 30_000
# Shape of one sampling chunk of the sweep: (trials, uniforms per trial).
CHUNK_SHAPE = (SWEEP_SAMPLES, 52)


@dataclass
class Outcome:
    """What one call produced, reduced to what the runner keeps."""

    failures: list[str]  # one message per failed check
    fingerprint: bytes
    bytes_written: int = 0


@dataclass
class Op:
    """One call into batchlat and the check of its output.

    ``units`` is how many operations the call counts as: the grid points
    of a sweep, one otherwise. ``trials`` is the Monte Carlo trials it runs.
    """

    name: str
    call: Callable[[], object]
    verify: Callable[[object], Outcome]
    units: int = 1
    trials: int = 0


@dataclass
class Workload:
    name: str
    threads: int
    ops: list[Op]
    # True when latency samples are sweep grid points, not whole calls.
    points_from_clock: bool = False
    notes: dict = field(default_factory=dict)

    @property
    def trials_per_pass(self) -> int:
        return sum(op.trials for op in self.ops)


def derive(seed: int, label: str) -> int:
    """A 63-bit stream seed for one input, from the workload seed and a label."""
    digest = hashlib.sha256(f"{seed}/{label}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def _digest(*parts: object) -> bytes:
    # Fractions print as hex: decimal str() of a huge int is refused by Python.
    shown = [f"{p.numerator:x}/{p.denominator:x}" if isinstance(p, Fraction) else repr(p) for p in parts]
    return hashlib.sha256(repr(shown).encode()).digest()


# ---------------------------------------------------------------------------
# sweep-n50


def sweep_n50(seed: int, out_dir: Path, tiny: bool = False) -> Workload:
    rates = SWEEP_RATES[::7] if tiny else SWEEP_RATES
    spec = cli.SweepSpec(
        rates=rates,
        b_values=(5, 10, 25),
        n_workers=50,
        policies=("balanced", "cyclic"),
        n_samples=2_000 if tiny else SWEEP_SAMPLES,
        seed=derive(seed, "sweep"),
        output_path=str(out_dir / "sweep.csv"),
        format="csv",
    )
    n_points = len(spec.rates) * len(spec.b_values) * len(spec.policies)
    oracle = {"balanced": oracles.balanced_time, "cyclic": oracles.cyclic_time}

    def verify(rows) -> Outcome:
        data = Path(spec.output_path).read_bytes()
        failures = []
        if len(rows) != n_points or data.count(b"\n") != n_points + 1:
            failures += [f"sweep wrote {len(rows)} rows, expected {n_points}"] * n_points
        for r in rows:
            target = float(oracle[r["policy"]](r["N"], r["B"])) / r["rate"]
            where = f"{r['policy']} B={r['B']} rate={r['rate']:.4g}"
            if r["exact"] != target:
                failures.append(f"{where}: exact {r['exact']} != {target}")
            elif not oracles.mean_ok(r["mean"], oracles.std_error_from_ci(r["ci_low"], r["ci_high"]), target):
                failures.append(f"{where}: mean {r['mean']} is not within {oracles.K_SIGMA} SE of the oracle")
        return Outcome(failures[:n_points], hashlib.sha256(data).digest(), len(data))

    op = Op(
        name="cli.run_sweep",
        call=lambda: cli.run_sweep(spec),
        verify=verify,
        units=n_points,
        trials=n_points * spec.n_samples,
    )
    return Workload("sweep-n50", threads=2, ops=[op], points_from_clock=True,
                    notes={"grid_points": n_points, "n_samples": spec.n_samples})


# ---------------------------------------------------------------------------
# mc-narrow


def _mc_op(name: str, cfg: sim.SimConfig, oracle: Callable[[], Fraction],
           coverage: Callable[[], Fraction] | None = None) -> Op:
    def verify(est) -> Outcome:
        failures = []
        target = float(oracle()) / cfg.rate
        if not oracles.mean_ok(est.mean, est.std_error, target):
            failures.append(f"{name}: mean {est.mean} is not within {oracles.K_SIGMA} SE of {target}")
        if coverage is not None and not oracles.rate_ok(est.coverage_rate, cfg.n_samples, coverage()):
            failures.append(f"{name}: coverage_rate {est.coverage_rate} is not within "
                            f"{oracles.K_SIGMA} SE of {float(coverage())}")
        return Outcome(failures, _digest(est.mean, est.std_error, est.coverage_rate))

    return Op(name=name, call=lambda: sim.monte_carlo(cfg), verify=verify, trials=cfg.n_samples)


def _fig4_op(samples: int, seed: int, rate: float) -> Op:
    argv = ["compare-fig4", "--samples", str(samples), "--seed", str(seed), "--rate", repr(rate)]
    expected = {
        "cyclic": oracles.CYCLIC_6_3,
        "grouped-overlap": oracles.SHARED_PAIR_6_3,
        "replicated": oracles.REPLICATED_6_3,
    }

    def call() -> tuple[int, str]:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        return code, buf.getvalue()

    def verify(result) -> Outcome:
        code, text = result
        seen = {}
        for line in text.splitlines()[1:]:
            label, exact, mean, low, high, _ = line.split()
            seen[label] = (exact, float(mean), float(low), float(high))
        failures = []
        if code != 0 or sorted(seen) != sorted(expected):
            failures.append(f"compare-fig4 exited {code} with rows {sorted(seen)}")
        else:
            for label, f in expected.items():
                exact, mean, low, high = seen[label]
                target = float(f) / rate
                if exact != format(target, ".9g"):
                    failures.append(f"compare-fig4 {label}: exact {exact} != {target:.9g}")
                elif not oracles.mean_ok(mean, oracles.std_error_from_ci(low, high), target):
                    failures.append(f"compare-fig4 {label}: mean {mean} is not within "
                                    f"{oracles.K_SIGMA} SE of {target}")
        return Outcome(failures[:1], _digest(code, text), len(text.encode()))

    return Op(name="cli.main compare-fig4", call=call, verify=verify, trials=3 * samples)


def mc_narrow(seed: int, out_dir: Path, tiny: bool = False) -> Workload:
    scale = 100 if tiny else 1
    rate = random.Random(derive(seed, "rate")).uniform(0.5, 2.0)
    kind = policies.PolicyKind

    def cfg(label: str, n_samples: int, policy, n_workers: int, n_batches: int, n_blocks: int | None = None):
        return sim.SimConfig(
            n_samples=n_samples // scale,
            seed=derive(seed, label),
            rate=rate,
            policy=policy,
            system=SystemParams(n_workers, n_blocks or n_workers, n_batches, rate),
        )

    replicated = policies.replicated_nonoverlap_layout(16, 4)[1]
    ops = [
        _mc_op("balanced N=6 B=3",
               cfg("balanced", 1_000_000, policies.PolicySpec(kind.BALANCED), 6, 3),
               lambda: oracles.REPLICATED_6_3),
        _mc_op("explicit-vector (3,2,1)",
               cfg("vector", 1_000_000, policies.PolicySpec(kind.EXPLICIT_VECTOR, vector=(3, 2, 1)), 6, 3),
               lambda: oracles.CYCLIC_6_3),
        _mc_op("cyclic N=6 B=3",
               cfg("cyclic", 1_000_000, policies.PolicySpec(kind.CYCLIC), 6, 3),
               lambda: oracles.CYCLIC_6_3),
        _mc_op("random-cc N=12 B=3",
               cfg("random-cc", 500_000, policies.PolicySpec(kind.RANDOM_CC), 12, 3),
               lambda: oracles.random_cc_time(12, 3), coverage=lambda: oracles.coverage(3, 12)),
        _mc_op("explicit-structure 256 groups",
               cfg("structure", 50_000, policies.PolicySpec(kind.EXPLICIT_STRUCTURE, groups=replicated.groups), 16, 4),
               lambda: oracles.balanced_time(16, 4)),
    ]

    cov_samples, cov_seed = 1_000_000 // scale, derive(seed, "coverage")

    def verify_coverage(p: float) -> Outcome:
        target = oracles.coverage(10, 20)
        ok = oracles.rate_ok(p, cov_samples, target)
        msg = [] if ok else [f"coverage_empirical {p} is not within {oracles.K_SIGMA} SE of {float(target)}"]
        return Outcome(msg, _digest(p))

    ops.append(Op(name="coverage_empirical B=10 N=20",
                  call=lambda: sim.coverage_empirical(10, 20, cov_samples, cov_seed),
                  verify=verify_coverage, trials=cov_samples))
    ops.append(_fig4_op(max(200_000 // scale, 1000), derive(seed, "fig4"), rate))
    return Workload("mc-narrow", threads=1, ops=ops, notes={"rate": rate})


# ---------------------------------------------------------------------------
# exact-scale


def _composition(total: int, weights: list[float]) -> list[int]:
    """Split total into positive parts proportional to weights."""
    parts = [max(1, int(total * w / sum(weights))) for w in weights]
    parts[-1] += total - sum(parts)
    return parts


def _exact_op(name: str, call: Callable[[], object], expected: Callable[[], object],
              equal: Callable[[object, object], bool] = lambda a, b: a == b) -> Op:
    def verify(got) -> Outcome:
        ok = equal(got, expected())
        return Outcome([] if ok else [f"{name}: result differs from the oracle"], _digest(got))

    return Op(name=name, call=call, verify=verify)


def exact_scale(seed: int, out_dir: Path, tiny: bool = False) -> Workload:
    rng = random.Random(derive(seed, "exact"))
    cov_b, cov_n = (20, 200) if tiny else (220, 2200)
    cyc_n, cyc_b = (200, 20) if tiny else (1800, 20)
    struct_n, struct_b = (12, 4) if tiny else (24, 4)
    vec_n, vec_b = (400, 25) if tiny else (4000, 25)

    perm = list(range(struct_n))
    rng.shuffle(perm)
    groups = [frozenset(perm[w] for w in g)
              for g in policies.cyclic_layout(struct_n, struct_b)[1].groups]
    # Fixed shapes (balanced, ramp, two-level, geometric) in seeded order:
    # the expected time and the cost of every route do not depend on the
    # order, so the seed changes the inputs but not the work.
    shapes = {
        "balanced": [1.0] * vec_b,
        "ramp": [i + 1.0 for i in range(vec_b)],
        "two-level": [1.0] * (vec_b // 2) + [3.0] * (vec_b - vec_b // 2),
        "geometric": [1.2**i for i in range(vec_b)],
    }
    vectors = {}
    for shape, weights in shapes.items():
        counts = _composition(vec_n, weights)
        rng.shuffle(counts)
        vectors[shape] = tuple(counts)

    def vector_time(v: tuple[int, ...]) -> Fraction:
        if len(set(v)) == 1:
            return oracles.balanced_time(vec_n, vec_b)
        return oracles.grouped_vector_time(v)

    ops = [
        _exact_op(f"coverage_probability B={cov_b} N={cov_n}",
                  lambda: analytics.coverage_probability(cov_b, cov_n).fraction,
                  lambda: oracles.coverage(cov_b, cov_n)),
        _exact_op(f"expected_time_cyclic N={cyc_n} B={cyc_b}",
                  lambda: analytics.expected_time_cyclic(cyc_n, cyc_b),
                  lambda: float(oracles.cyclic_time(cyc_n, cyc_b))),
        _exact_op(f"exact_expected_time_structure N={struct_n}",
                  lambda: analytics.exact_expected_time_structure(groups, struct_n),
                  lambda: float(oracles.cyclic_time(struct_n, struct_b))),
    ]
    for shape, v in vectors.items():
        ops.append(_exact_op(f"expected_time_assignment {shape}",
                             lambda v=v: analytics.expected_time_assignment(v),
                             lambda v=v: float(vector_time(v)),
                             lambda a, b: abs(a - b) <= 1e-9 * abs(b)))
        ops.append(_exact_op(f"expected_time_assignment {shape} exact",
                             lambda v=v: analytics.expected_time_assignment(v, exact=True),
                             lambda v=v: float(vector_time(v))))
    return Workload("exact-scale", threads=1, ops=ops,
                    notes={"vectors": {shape: list(v) for shape, v in vectors.items()}})


_CONSTRUCTORS = {"sweep-n50": sweep_n50, "mc-narrow": mc_narrow, "exact-scale": exact_scale}


def build(name: str, seed: int, out_dir: Path, tiny: bool = False) -> Workload:
    return _CONSTRUCTORS[name](seed, out_dir, tiny)

