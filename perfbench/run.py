#!/usr/bin/env python3
"""Benchmark for batchlat: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload sweep-n50 --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; batchlat is imported from its ``src/``.
``--workload all`` runs every workload in turn, each in its own process.

A run imports batchlat and builds the workload's inputs from ``--seed``,
runs one untimed warm-up pass, then repeats timed passes until
``--seconds`` have gone by. Each operation's output is checked against an
independent oracle outside the timers; a call that raises or fails its
check counts as failed. Every pass must also reproduce the first pass's
outputs byte for byte.

With ``--trace 0`` the run reports the end-to-end metrics. With
``--trace 1`` it spends half its time untraced and half with span
wrappers installed, and reports the per-layer metrics. The last line of
stdout is the result object; the lines before it are a readable table and
the run's provenance. Result and trace files go to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# Only the standard library is imported at module level, so that a set-up
# probe's timer covers the import of numpy and batchlat.
HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
NAMES = ("sweep-n50", "mc-narrow", "exact-scale")
SETUP_PROBES = 7
MIN_PASSES = 3
REF_REPEATS = 15

# name -> (unit, better); every one is reported on every workload.
END_TO_END: dict[str, tuple[str, str]] = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "point_p50_s": ("s", "lower"),
    "point_p90_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}


def _import_package():
    """Import batchlat from the checkout's src/, refusing any other copy."""
    if not (SRC / "batchlat" / "__init__.py").is_file():
        raise SystemExit(f"error: no batchlat package under {SRC}; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    import batchlat

    if Path(batchlat.__file__).resolve().parent != (SRC / "batchlat").resolve():
        raise SystemExit(f"error: imported batchlat from {batchlat.__file__}, not from {SRC}")
    return batchlat


def _setup_probe(workload: str, seed: int, tiny: bool) -> None:
    """Child process: time importing batchlat and building the inputs."""
    start = time.perf_counter()
    _import_package()
    import workloads

    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        workloads.build(workload, seed, Path(tmp), tiny=tiny)
    print(repr(time.perf_counter() - start))


def _setup_seconds(workload: str, seed: int, tiny: bool) -> list[float]:
    cmd = [sys.executable, str(Path(__file__)), "--setup-probe", "--workload", workload, "--seed", str(seed)]
    out = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            cmd + (["--tiny"] if tiny else []),
            capture_output=True, text=True, timeout=120, check=True,
        )
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


class Runner:
    """Runs passes of one workload and keeps per-pass timings and checks."""

    def __init__(self, wl) -> None:
        self.wl = wl
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []
        self.fingerprints: list[bytes] | None = None
        self.digests: set[str] = set()

    def one_pass(self, clock=None, record: bool = True) -> dict:
        """One closed-loop pass; returns its wall time, latencies and bytes written."""
        wall = 0.0
        durations: list[float] = []
        points: list[float] = []
        written = 0
        prints = []
        for op in self.wl.ops:
            mark = len(clock.times) if clock is not None else 0
            start = time.perf_counter()
            try:
                output = op.call()
            except Exception as exc:  # a failed operation is counted, not fatal
                output, error = None, exc
            else:
                error = None
            elapsed = time.perf_counter() - start
            wall += elapsed
            durations.append(elapsed)
            if clock is not None:
                points += [end - begin for begin, end in clock.times[mark:]]
            else:
                points.append(elapsed)
            if error is None:
                try:
                    outcome = op.verify(output)
                except Exception as exc:  # malformed output fails its check
                    error = exc
            if error is not None:
                failures, fingerprint = [f"{op.name}: {error!r}"] * op.units, b""
            else:
                failures, fingerprint = outcome.failures, outcome.fingerprint
                written += outcome.bytes_written
            prints.append(fingerprint)
            if record:
                bad = min(len(failures), op.units)  # one unit can fail more than one check
                if not bad and self.fingerprints is not None and fingerprint != self.fingerprints[len(prints) - 1]:
                    bad, failures = op.units, [f"{op.name}: output differs from the first pass"]
                self.attempted += op.units
                self.failed += bad
                self.messages += failures[:3]
        if record and self.fingerprints is None:
            self.fingerprints = prints
        if record:
            self.digests.add(hashlib.sha256(b"".join(prints)).hexdigest())
        return {"wall": wall, "ops": durations, "points": points, "bytes": written}

    def passes(self, seconds: float, clock=None, tracer=None) -> list[dict]:
        out = []
        start = time.perf_counter()
        while len(out) < MIN_PASSES or time.perf_counter() - start < seconds:
            if tracer is not None:
                tracer.pass_index = len(out)
            out.append(self.one_pass(clock))
        return out


def _quantile(values: list[float], q: float) -> float:
    """Linear-interpolation quantile, as numpy's default."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def _ref_kernels(shape: tuple[int, int]) -> dict[str, float]:
    """Philox fill and -log1p, ns per uniform, on one sweep chunk's shape."""
    import numpy as np
    from numpy.random import Generator, Philox, SeedSequence

    philox, log1p = [], []
    size = shape[0] * shape[1]
    for rep in range(REF_REPEATS):
        gen = Generator(Philox(SeedSequence(rep)))
        start = time.perf_counter()
        u = gen.random(shape)
        mid = time.perf_counter()
        t = -np.log1p(-u)
        end = time.perf_counter()
        philox.append((mid - start) * 1e9 / size)
        log1p.append((end - mid) * 1e9 / size)
        del t
    return {
        "ref.philox_ns_per_uniform": statistics.median(philox),
        "ref.log1p_ns_per_uniform": statistics.median(log1p),
    }


def _provenance(args, wl) -> dict:
    import numpy

    sha = None
    try:
        lines = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                               capture_output=True, text=True, timeout=10).stdout.split()
    except (OSError, subprocess.SubprocessError):
        lines = []
    if len(lines) == 2 and Path(lines[0]).resolve() == ROOT.resolve():  # not an enclosing repo's
        sha = lines[1]
    cpu = platform.processor() or None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "BATCHLAT_THREADS": os.environ.get("BATCHLAT_THREADS"),
        "workload_notes": wl.notes,
    }


def run(args) -> int:
    batchlat = _import_package()
    OUT.mkdir(exist_ok=True)
    setup = None if args.trace else _setup_seconds(args.workload, args.seed, args.tiny)
    import layers
    import tracer as tracing
    import workloads

    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        wl = workloads.build(args.workload, args.seed, Path(tmp), tiny=args.tiny)
        threads = min(wl.threads, os.cpu_count() or 1)
        os.environ["BATCHLAT_THREADS"] = str(threads)
        runner = Runner(wl)
        # Sweep points are timed by the point clock, other calls by the runner.
        clock = tracing.PointClock(batchlat.cli) if wl.points_from_clock else None
        with clock or contextlib.nullcontext():
            runner.one_pass(clock, record=False)  # warm-up
            untraced = runner.passes(args.seconds / 2 if args.trace else args.seconds, clock)
        if args.trace:
            before = tracing.snapshot(batchlat)
            tr = tracing.Tracer(batchlat)
            with tr:
                traced = runner.passes(args.seconds / 2, tracer=tr)
            leftovers = tracing.changed_attributes(before, tracing.snapshot(batchlat))
            runner.attempted += 1
            if leftovers:
                runner.failed += 1
                runner.messages.append(f"tracer left wrapped attributes: {leftovers}")
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    wall = statistics.median(p["wall"] for p in untraced)
    points = [x for p in untraced for x in p["points"]]
    table: list[tuple[str, object, str, str]] = []
    if args.trace:
        per_pass = [
            layers.pass_metrics([s for s in tr.spans if s.pass_index == i], threads, p["bytes"])
            for i, p in enumerate(traced)
        ]
        values = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
        values.update(_ref_kernels(workloads.CHUNK_SHAPE))
        values["sim.floor_ratio"] = values["sim.ns_per_uniform"] / values["ref.philox_ns_per_uniform"]
        values["trace.overhead_s"] = statistics.median(p["wall"] for p in traced) - wall
        specs = layers.PER_LAYER
        samples = f"{len(traced)} traced passes"
        table = [(name, values[name], specs[name][0], samples) for name in specs]
        for layer, busy in (("sim", ("sim.monte_carlo.busy_s", "sim.coverage_empirical.busy_s")),
                            ("analytics", ("analytics.busy_s",))):
            share = statistics.median(
                sum(m[k] for k in busy) / (threads * p["wall"]) for m, p in zip(per_pass, traced)
            )
            table.append((f"{layer} share of threads x wall", share, "ratio", samples))
        trace_path = OUT / f"trace-{wl.name}-seed{args.seed}.json"
        trace_path.write_text(json.dumps([s.to_json() for s in tr.spans]))
    else:
        values = {
            "setup_s": statistics.median(setup),
            "wall_s": wall,
            "point_p50_s": _quantile(points, 0.5),
            "point_p90_s": _quantile(points, 0.9),
            "peak_rss_mb": peak_rss_mb,
        }
        specs = END_TO_END
        counts = {
            "setup_s": f"{len(setup)} probes",
            "wall_s": f"{len(untraced)} passes",
            "point_p50_s": f"{len(points)} points",
            "point_p90_s": f"{len(points)} points",
            "peak_rss_mb": "1 process",
        }
        table = [(name, values[name], specs[name][0], counts[name]) for name in specs]
        trials = wl.trials_per_pass
        table.append(("trials_per_s", trials / wall if trials else "n/a", "1/s", f"{len(untraced)} passes"))
    table.append(("error_rate", runner.failed / runner.attempted, "ratio", f"{runner.attempted} operations"))

    info = _provenance(args, wl)
    info["passes"] = {"untraced": len(untraced), **({"traced": len(traced)} if args.trace else {})}
    info["op_median_s"] = {
        op.name: statistics.median(p["ops"][i] for p in untraced) for i, op in enumerate(wl.ops)
    }
    info["output_sha256"] = sorted(runner.digests)
    info["units"] = {name: spec[0] for name, spec in specs.items()}
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": float(values[name]), "unit": specs[name][0]} for name in specs},
    }
    (OUT / f"result-{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"info": info, "result": result}, indent=2)
    )
    for message in runner.messages[:20]:
        print(f"check failed: {message}", file=sys.stderr)
    print(f"{wl.name}  seed={args.seed}  threads={threads}  trace={args.trace}")
    for name, value, unit, count in table:
        shown = value if isinstance(value, str) else f"{value:.6g}"
        print(f"  {name:<42} {shown:>14} {unit:<6} {count}")
    print("info " + json.dumps(info, sort_keys=True))
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Run each workload in its own process; the last line sums their results."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        cmd = [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            return proc.returncode or 1
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{name}/{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(merged))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, for the self-test")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.setup_probe:
        _setup_probe(args.workload, args.seed, args.tiny)
        return 0
    if args.workload == "all":
        return run_all(args)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
