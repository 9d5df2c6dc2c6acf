#!/usr/bin/env python3
"""Time the exact routes at the shapes that their complexity guards quote.

Usage:
    PYTHONPATH=src python3 scripts/guard_timings.py [FILTER ...]

For each shape it prints the median wall time of 5 calls and the
tracemalloc peak of one more call, or "refused" where a guard refuses the
shape. FILTER words keep only the shapes whose label contains one of them,
e.g. `cyclic` or `N=24`. The shapes are those that README.md and the guard
comments in batchlat/analytics.py quote. It needs only the standard library
and batchlat; all shapes together take about 70 s on a 2-vCPU Xeon.
"""

import itertools
import platform
import statistics
import sys
import time
import tracemalloc
from functools import partial

from batchlat import ComplexityGuardError, analytics
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
    # on the bound for each k, then three shapes past it
    for n, k in ((131_072, 1), (73_618, 2), (22_284, 10), (5079, 100), (2637, 300), (1312, 1000),
                 (1189, 1189), (3000, 300), (5000, 500), (20_000, 100)):
        yield f"stirling2 n={n} k={k}", partial(analytics.stirling2, n, k)
    structures = [(f"subsets cyclic N={n} B={b}", cyclic_layout(n, b)[1], n)
                  for n, b in ((24, 2), (24, 4), (50, 5), (50, 10), (50, 25), (60, 4), (64, 8))]
    structures.append(("subsets replicated N=24 B=4", replicated_nonoverlap_layout(24, 4)[1], 24))
    every_triple = [set(c) for c in itertools.combinations(range(24), 3)]
    structures.append(("subsets all 3-worker groups N=24", every_triple, 24))
    for label, structure, n in structures:
        yield label, partial(analytics.incomplete_subset_counts, structure, n)


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
    print(f"{'shape':<36} {'median ms':>11} {'peak MiB':>9}")
    for label, call in shapes():
        if filters and not any(f in label for f in filters):
            continue
        try:
            median, peak = measure(call)
        except ComplexityGuardError:
            print(f"{label:<36} {'refused':>11}", flush=True)
            continue
        print(f"{label:<36} {median * 1e3:11.3f} {peak / 2**20:9.2f}", flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
