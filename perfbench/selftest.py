#!/usr/bin/env python3
"""Quick self-test of the benchmark at tiny sizes (about 15 seconds).

    python3 perfbench/selftest.py

Run from the root of a checkout. It checks that:

- every metric named in BENCHMARK.json is emitted, with its unit, by a
  tiny untraced and a tiny traced run of each workload, and that those
  runs pass their own checks;
- each oracle accepts the true value and rejects a deliberately perturbed
  one, both directly and through every operation's ``verify``;
- the tracer rebinds the traced functions while installed and leaves every
  batchlat attribute as it found it, also when the traced code raises;
- the benchmark refuses to run, printing no result, in a directory that
  holds only BENCHMARK.json and the benchmark's own files.
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import run

failures: list[str] = []


def check(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def _run(workload: str, trace: int, cwd: Path = run.ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(run.HERE / "run.py"), "--workload", workload, "--seed", "5",
           "--seconds", "0.5", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def metrics_emitted(spec: dict) -> None:
    import layers

    for key, table in (("end_to_end", run.END_TO_END), ("per_layer", layers.PER_LAYER)):
        declared = {m["name"]: (m["unit"], m["better"]) for m in spec[key]}
        check(declared == table, f"BENCHMARK.json {key} matches the metrics the benchmark defines")
    for workload in run.NAMES:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = _run(workload, trace)
            try:
                result = json.loads(proc.stdout.splitlines()[-1])
            except (IndexError, json.JSONDecodeError):
                check(False, f"{workload} trace={trace} prints a result ({proc.stderr.strip()[-200:]})")
                continue
            check(proc.returncode == 0 and result["correct"] and result["failed"] == 0
                  and result["attempted"] >= 1, f"{workload} trace={trace} passes its checks")
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            want = {m["name"]: m["unit"] for m in spec[key]}
            check(got == want, f"{workload} trace={trace} emits every {key} metric with its unit")
            check(all(isinstance(m["value"], (int, float)) and math.isfinite(m["value"])
                      for m in result["metrics"].values()), f"{workload} trace={trace} values are finite numbers")


def oracles_reject_perturbed() -> None:
    import oracles
    from batchlat import analytics

    check(oracles.balanced_time(6, 3) == oracles.REPLICATED_6_3, "balanced N=6 B=3 oracle is 11/12")
    check(oracles.vector_time((3, 2, 1)) == oracles.CYCLIC_6_3 == oracles.cyclic_time(6, 3),
          "vector (3,2,1) and cyclic N=6 oracles are 73/60")
    check(oracles.random_cc_time(2, 2) == Fraction(3, 2), "random-cc N=2 B=2 oracle is E[max of 2] = 3/2")
    check(oracles.coverage(3, 6) == Fraction(20, 27), "coverage B=3 N=6 oracle is 20/27")
    check(oracles.cyclic_time(60, 5) == analytics.expected_time_cyclic_rational(60, 5),
          "cyclic oracle equals the package's rational")
    check(oracles.mean_ok(1.0, 0.01, 1.04) and not oracles.mean_ok(1.0, 0.01, 1.06),
          "mean check accepts 4 SE and rejects 6 SE")
    check(oracles.rate_ok(0.5, 10_000, Fraction(1, 2)) and not oracles.rate_ok(0.5 + 6 * 0.005, 10_000, Fraction(1, 2)),
          "rate check rejects a rate 6 SE off")

    import workloads

    with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
        for name in run.NAMES:
            wl = workloads.build(name, 5, Path(tmp), tiny=True)
            for op in wl.ops:
                output = op.call()
                check(op.verify(output).failures == [], f"{name} {op.name}: true output passes")
                for label, bad in _perturbed(output, op):
                    try:
                        rejected = bool(op.verify(bad).failures)
                    except (ValueError, KeyError):
                        rejected = True
                    check(rejected, f"{name} {op.name}: {label} is rejected")


# A true estimate lies within K_SIGMA SEs of its oracle, so one moved by
# 2 * K_SIGMA + 1 SEs lies more than K_SIGMA SEs away whatever its noise.
SHIFT = 11


def _perturbed(output, op):
    """Outputs that a correct check must refuse, derived from a true output."""
    if isinstance(output, Fraction):
        yield "exact value + 1/denominator", output + Fraction(1, output.denominator)
    elif isinstance(output, float) and op.trials:  # coverage_empirical's hit rate
        yield "a hit rate 11 SE off", output + SHIFT * math.sqrt(output * (1 - output) / op.trials)
    elif isinstance(output, float):
        yield "value * (1 + 1e-6)", output * (1 + 1e-6)
    elif isinstance(output, tuple):  # cli.main: (exit code, stdout)
        code, text = output
        lines = text.splitlines()
        fields = lines[1].split()
        mean, low, high = (float(x) for x in fields[2:5])
        fields[2] = format(mean + SHIFT * (high - low) / (2 * 1.959963984540054), ".9g")
        yield "a compare-fig4 mean 11 SE off", (code, "\n".join([lines[0], " ".join(fields), *lines[2:]]) + "\n")
        yield "a non-zero exit code", (2, text)
    elif isinstance(output, list):  # sweep rows
        rows = [dict(r) for r in output]
        r = rows[len(rows) // 2]
        shift = SHIFT * (r["ci_high"] - r["ci_low"]) / (2 * 1.959963984540054)
        r.update(mean=r["mean"] + shift, ci_low=r["ci_low"] + shift, ci_high=r["ci_high"] + shift)
        yield "a sweep mean 11 SE off", rows
        rows = [dict(r) for r in output]
        rows[0]["exact"] *= 1 + 1e-12
        yield "a sweep exact value off by 1e-12", rows
    else:  # CompletionEstimate
        est = output
        shift = SHIFT * est.std_error
        yield "a mean 11 SE off", dataclasses.replace(
            est, mean=est.mean + shift, ci95_low=est.ci95_low + shift, ci95_high=est.ci95_high + shift)
        if est.coverage_rate < 1.0:
            p = est.coverage_rate
            yield "a coverage rate 11 SE off", dataclasses.replace(
                est, coverage_rate=p - SHIFT * math.sqrt(p * (1 - p) / est.n_samples))


def tracer_restores(batchlat) -> None:
    import tracer as tracing

    before = tracing.snapshot(batchlat)
    original = batchlat.cli.monte_carlo
    tr = tracing.Tracer(batchlat)
    with tr:
        check(batchlat.cli.monte_carlo is not original and batchlat.sim.monte_carlo is batchlat.cli.monte_carlo,
              "tracer rebinds every binding of a traced function while installed")
        batchlat.analytics.expected_time_cyclic(60, 5)
    check(not tracing.changed_attributes(before, tracing.snapshot(batchlat)), "tracer restores every attribute")
    check([s.name for s in tr.spans] == ["analytics.expected_time_cyclic"], "tracer records one span per call")
    try:
        with tracing.Tracer(batchlat):
            batchlat.analytics.expected_time_cyclic(7, 2)  # not divisible: raises
    except batchlat.DomainError:
        pass
    check(not tracing.changed_attributes(before, tracing.snapshot(batchlat)),
          "tracer restores every attribute when the traced call raises")
    with tracing.PointClock(batchlat.cli):
        pass
    check(not tracing.changed_attributes(before, tracing.snapshot(batchlat)), "point clock restores cli.monte_carlo")


def refuses_without_source() -> None:
    with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
        bare = Path(tmp)
        shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(run.HERE, bare / run.HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run("exact-scale", 0, cwd=bare)
        last = proc.stdout.strip().splitlines()[-1:] or [""]
        check(proc.returncode != 0 and '"correct"' not in last[0],
              "exits non-zero without a result where only the benchmark's files exist")


def main() -> int:
    batchlat = run._import_package()
    run.OUT.mkdir(exist_ok=True)
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    tracer_restores(batchlat)
    oracles_reject_perturbed()
    refuses_without_source()
    metrics_emitted(spec)
    print(f"{len(failures)} failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
