"""Independent reference values and output checks for the benchmark.

Everything here is written from the formulas, not from batchlat's code, so
a check compares the package against a second route. Exact values are
``Fraction``s; a Monte Carlo estimate passes when it lies within
``K_SIGMA`` standard errors of its oracle. The oracle functions are cached:
their arguments are small ints and their results immutable, and each check
runs once per pass.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache
from itertools import product

Z95 = 1.959963984540054  # two-sided 95% normal quantile, as in the CI
K_SIGMA = 5

# The three six-worker layouts of the paper's comparison, rate 1.
REPLICATED_6_3 = Fraction(11, 12)  # also balanced N=6 B=3
SHARED_PAIR_6_3 = Fraction(21, 20)
CYCLIC_6_3 = Fraction(73, 60)  # also the vector (3, 2, 1)


def harmonics(n: int) -> list[Fraction]:
    """[H_0, H_1, ..., H_n], accumulated in one pass."""
    out = [Fraction(0)]
    for k in range(1, n + 1):
        out.append(out[-1] + Fraction(1, k))
    return out


@cache
def balanced_time(n_workers: int, n_batches: int) -> Fraction:
    """Rate-1 expected time of the balanced vector: (B/N) * H_B."""
    return Fraction(n_batches, n_workers) * harmonics(n_batches)[-1]


@cache
def cyclic_time(n_workers: int, n_batches: int) -> Fraction:
    """Rate-1 expected time of the cyclic layout: sum_j (-1)^(j+1) C(G,j) H_{jB}."""
    groups = n_workers // n_batches
    h = harmonics(n_workers)
    return sum(
        (-1) ** (j + 1) * math.comb(groups, j) * h[j * n_batches]
        for j in range(1, groups + 1)
    )


@cache
def coverage(n_batches: int, n_workers: int) -> Fraction:
    """P(N uniform batch draws hit all B batches), by the surjection sum."""
    surjections = sum(
        (-1) ** (n_batches - i) * math.comb(n_batches, i) * i**n_workers
        for i in range(n_batches + 1)
    )
    return Fraction(surjections, n_batches**n_workers)


def vector_time(counts: tuple[int, ...]) -> Fraction:
    """Rate-1 E[max over batches of the min of c_i exponentials], small B.

    Inclusion-exclusion over every non-empty batch subset, without
    grouping terms; exponential in B, so only for the narrow vectors.
    """
    total = Fraction(0)
    for picks in product((0, 1), repeat=len(counts)):
        size = sum(picks)
        if size:
            total += Fraction((-1) ** (size + 1), sum(c for c, p in zip(counts, picks) if p))
    return total


@cache
def grouped_vector_time(counts: tuple[int, ...]) -> Fraction:
    """Rate-1 E[max over batches of the min of c_i exponentials], any B.

    Inclusion-exclusion with subsets grouped by replica-count sum: the
    coefficients of prod_i (1 - x^c_i), kept in a dict.
    """
    poly = {0: 1}
    for c in counts:
        step = dict(poly)
        for w, coef in poly.items():
            step[w + c] = step.get(w + c, 0) - coef
        poly = step
    return sum((Fraction(-coef, w) for w, coef in poly.items() if w and coef), Fraction(0))


@cache
def random_cc_time(n_workers: int, n_batches: int) -> Fraction:
    """Rate-1 expected time of random-cc given that every batch is covered.

    Averages vector_time over every all-positive count vector, weighted by
    its multinomial probability.
    """
    weighted = Fraction(0)
    mass = 0
    for counts in product(range(1, n_workers + 1), repeat=n_batches):
        if sum(counts) != n_workers:
            continue
        ways = math.factorial(n_workers)
        for c in counts:
            ways //= math.factorial(c)
        weighted += ways * vector_time(counts)
        mass += ways
    return weighted / mass


def mean_ok(mean: float, std_error: float, oracle: Fraction | float) -> bool:
    """Whether an estimate lies within K_SIGMA standard errors of the oracle."""
    return std_error > 0 and abs(mean - float(oracle)) <= K_SIGMA * std_error


def rate_ok(observed: float, n_samples: int, oracle: Fraction) -> bool:
    """Whether an observed hit rate over n trials lies within K_SIGMA binomial SEs."""
    p = float(oracle)
    return mean_ok(observed, math.sqrt(p * (1.0 - p) / n_samples), p)


def std_error_from_ci(low: float, high: float) -> float:
    return (high - low) / (2 * Z95)
