#!/usr/bin/env python3
"""Time the exact routes at the shapes that their complexity guards quote,
and the Monte Carlo kernels at the shapes that pick their paths.

Usage:
    PYTHONPATH=src python3 scripts/guard_timings.py [FILTER ...]

For each shape it prints the median wall time of 5 calls and the
tracemalloc peak of one more call, or "refused" where a guard refuses the
shape. FILTER words keep only the shapes whose label contains one of them,
e.g. `cyclic` or `N=24`. The shapes are those that README.md and the guard
comments in batchlat/analytics.py, policies.py and sim.py quote. It needs
only numpy and batchlat; all shapes together take about a minute on a
2-vCPU Xeon.
"""

import itertools
import platform
import statistics
import sys
import time
import tracemalloc
from functools import partial

from batchlat import ComplexityGuardError, PolicySpec, SimConfig, SystemParams, analytics, sim
from batchlat.policies import cyclic_layout, replicated_nonoverlap_layout

CALLS = 5


def shapes():
    """(label, call) for every quoted shape, inputs built before any timing."""
    for b, n in ((1000, 10_000), (3000, 3000)):
        counts = (n // b,) * b
        yield f"vector B={b} N={n}", partial(analytics.expected_time_assignment_rational, counts)
    for b, n in ((3162, 3162), (300, 31_856), (1000, 10_000), (3, 165_392), (16, 65_536)):
        yield f"coverage B={b} N={n}", partial(analytics.coverage_probability, b, n)
    yield "harmonic n=100000", partial(analytics.harmonic, 10**5)
    for n, b in ((6, 3), (24, 4), (50, 5), (50, 10), (50, 25), (1800, 20), (4000, 4),
                 (10_000, 1), (20_000, 2), (50_000, 5), (50_000, 10), (100_000, 10),
                 (100_000, 100), (100_000, 100_000)):
        yield f"cyclic N={n} B={b}", partial(analytics.expected_time_cyclic_rational, n, b)
    structures = [(f"subsets cyclic N={n} B={b}", cyclic_layout(n, b)[1], n)
                  for n, b in ((24, 2), (24, 4), (50, 5), (50, 10), (50, 25), (60, 4), (64, 8))]
    structures.append(("subsets replicated N=24 B=4", replicated_nonoverlap_layout(24, 4)[1], 24))
    every_triple = [set(c) for c in itertools.combinations(range(24), 3)]
    structures.append(("subsets all 3-worker groups N=24", every_triple, 24))
    for label, structure, n in structures:
        yield label, partial(analytics.incomplete_subset_counts, structure, n)
    # the layouts' 2^20 bound on block ids in their windows, and the samplers' N <= 2^20
    yield "cyclic_layout N=1024 B=1", partial(cyclic_layout, 1024, 1)
    yield "replicated_layout N=1024 B=1", partial(replicated_nonoverlap_layout, 1024, 1)
    n = 2**20
    cfg = SimConfig(1, 0, 1.0, PolicySpec("cyclic"), SystemParams(n, n, 2))
    yield "monte_carlo cyclic N=2^20 B=2", partial(sim.monte_carlo, cfg)
    # the two random-draw samplers on both sides of sim._SHORT_ROW: random-cc
    # rows of B batch minima, and coverage_empirical's hit words (rows of N
    # draws) and its B > 64 table (rows of B hits); every shape here covers
    for n, b, trials in ((12, 3, 5 * 10**5), (400, 40, 10**5), (2**20, 2**16, 5)):
        cfg = SimConfig(trials, 0, 1.0, PolicySpec("random-cc"), SystemParams(n, n, b))
        yield f"monte_carlo random-cc N={n} B={b} n={trials}", partial(sim.monte_carlo, cfg)
    for b, n, trials in ((10, 20, 10**6), (10, 32, 10**5), (64, 200, 10**5), (65, 200, 10**5),
                         (10, 20_000, 10**3), (3, 2**20, 2), (2**16, 2**20, 5)):
        yield f"coverage_empirical B={b} N={n} n={trials}", partial(
            sim.coverage_empirical, b, n, trials, 0)


def measure(call):
    """Median seconds of CALLS calls, and the traced peak bytes of one more."""
    times = []
    for _ in range(CALLS):
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    tracemalloc.start()
    try:
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return statistics.median(times), peak


def main(filters):
    print(f"# python {platform.python_version()}, {platform.machine()}, "
          f"median of {CALLS} calls, tracemalloc peak of one")
    print(f"{'shape':<44} {'median ms':>11} {'peak MiB':>9}")
    for label, call in shapes():
        if filters and not any(f in label for f in filters):
            continue
        try:
            median, peak = measure(call)
        except ComplexityGuardError:
            print(f"{label:<44} {'refused':>11}", flush=True)
            continue
        print(f"{label:<44} {median * 1e3:11.3f} {peak / 2**20:9.2f}", flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
