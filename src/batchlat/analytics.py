"""Exact completion-time and coverage analysis for redundant batch assignment.

The quantities here are closed forms for the master/worker model: N workers
with i.i.d. exponential service times, each holding one batch of data, where
the job finishes once the reported batches jointly reconstruct the data set.
For non-overlapping batches the completion time is the max over batches of
the min over each batch's replicas; for overlapping layouts it is the min
over recovery groups of the max within a group.

All results are computed in exact rational arithmetic and converted to float
at the boundary. Every ``expected_time_*`` function evaluates the rate-1
value first and divides by the rate at the end, so the scaling law
``f(rate) == f(1) / rate`` holds exactly in floating point as well.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .model import (
    AssignmentVector,
    ComplexityGuardError,
    DomainError,
    NonDivisibleError,
    RecoveryStructure,
    UncoveredBatchError,
    _require_counts,
    _require_groups,
    _require_nonneg_int,
    _require_positive_int,
    _require_positive_real,
)

__all__ = [
    "ExactProbability",
    "MAX_BATCH_WORKER_PRODUCT",
    "MAX_STRUCTURE_WORKERS",
    "harmonic",
    "stirling2",
    "stirling2_alternating",
    "coverage_probability",
    "coverage_probability_exact_n",
    "expected_time_balanced",
    "expected_time_balanced_rational",
    "expected_time_assignment",
    "expected_time_assignment_rational",
    "expected_time_cyclic",
    "expected_time_cyclic_rational",
    "exact_expected_time_structure",
    "expected_time_structure_rational",
    "incomplete_subset_counts",
    "rearranged",
    "majorizes",
    "is_balanced_minimal",
]

#: Refuse the assignment-vector and coverage closed forms when B * N exceeds
#: this: each makes up to B * N big-integer steps, which at the limit take
#: about a second on a 2-vCPU Xeon under CPython 3.11.
MAX_BATCH_WORKER_PRODUCT = 10**7

#: Refuse subset enumeration over more than this many workers (2^N subsets).
MAX_STRUCTURE_WORKERS = 24


@dataclass(frozen=True)
class ExactProbability:
    """A probability stored as an exact reduced rational plus its float image.

    The float is correctly rounded from the rational (within half an ulp),
    so regimes where the denominator overflows any fixed-width integer stay
    exact until the final conversion.
    """

    numerator: int
    denominator: int
    float_value: float = field(init=False)

    def __post_init__(self) -> None:
        for v in (self.numerator, self.denominator):
            if isinstance(v, bool) or not isinstance(v, int):
                raise DomainError(f"numerator and denominator must be integers, got {v!r}")
        if self.denominator == 0:
            raise DomainError("denominator must be non-zero")
        frac = Fraction(self.numerator, self.denominator)
        if not 0 <= frac <= 1:
            raise DomainError(f"probability {frac} lies outside [0, 1]")
        object.__setattr__(self, "numerator", frac.numerator)
        object.__setattr__(self, "denominator", frac.denominator)
        object.__setattr__(self, "float_value", frac.numerator / frac.denominator)

    @property
    def fraction(self) -> Fraction:
        return Fraction(self.numerator, self.denominator)

    def __float__(self) -> float:
        return self.float_value


def _require_batch_worker_product(n_batches: int, n_workers: int, route: str) -> None:
    if n_batches * n_workers > MAX_BATCH_WORKER_PRODUCT:
        raise ComplexityGuardError(
            f"{route} over B={n_batches} batches and N={n_workers} workers exceeds the "
            f"B*N <= {MAX_BATCH_WORKER_PRODUCT} guard; estimate by Monte Carlo instead"
        )


def harmonic(n: int) -> Fraction:
    """Exact n-th harmonic number H_n = 1 + 1/2 + ... + 1/n.

    Returned as a Fraction, which serves as both the exact rational and,
    via float(), the real value. H_n is the expected maximum of n
    independent unit-rate exponential variables.
    """
    _require_positive_int(n, "n")
    total = Fraction(0)
    for k in range(1, n + 1):
        total += Fraction(1, k)
    return total


def stirling2(n: int, k: int) -> int:
    """Number of partitions of an n-set into k non-empty blocks, S(n, k).

    Computed by the recurrence S(n, k) = k*S(n-1, k) + S(n-1, k-1) with
    S(0, 0) = 1. Arguments with k > n yield 0; negative arguments are
    rejected.
    """
    _require_nonneg_int(n, "n")
    _require_nonneg_int(k, "k")
    if k > n:
        return 0
    if n == 0:
        return 1
    if k == 0:
        return 0
    # One rolling row of the triangle; updating right-to-left keeps the
    # row[j-1] reference on the previous n.
    row = [1] + [0] * k
    for _ in range(n):
        for j in range(k, 0, -1):
            row[j] = j * row[j] + row[j - 1]
        row[0] = 0
    return row[k]


def _surjections(n: int, k: int) -> int:
    """Maps from an n-set onto a k-set: sum_i (-1)^(k-i) C(k,i) i^n."""
    return sum((-1) ** (k - i) * math.comb(k, i) * i**n for i in range(k + 1))


def stirling2_alternating(n: int, k: int) -> int:
    """S(n, k) by the surjection count: (1/k!) * sum_i (-1)^(k-i) C(k,i) i^n.

    An independent route to the same integers as :func:`stirling2`; the two
    must agree exactly.
    """
    _require_nonneg_int(n, "n")
    _require_nonneg_int(k, "k")
    if k > n:
        return 0
    value, rem = divmod(_surjections(n, k), math.factorial(k))
    if rem:
        raise ArithmeticError(f"alternating sum for S({n},{k}) is not divisible by {k}!")
    return value


def coverage_probability(n_batches: int, n_workers: int) -> ExactProbability:
    """Probability that N uniform with-replacement batch draws hit all B batches.

    Exactly B! * S(N, B) / B^N: the number of surjections from workers onto
    batches, counted by the alternating sum, over the number of assignment
    outcomes. Returns exact zero when B > N (too few draws to cover), and
    raises ComplexityGuardError when B * N exceeds MAX_BATCH_WORKER_PRODUCT.
    """
    _require_positive_int(n_batches, "n_batches")
    _require_positive_int(n_workers, "n_workers")
    if n_batches > n_workers:
        return ExactProbability(0, 1)
    _require_batch_worker_product(n_batches, n_workers, "the surjection sum")
    return ExactProbability(_surjections(n_workers, n_batches), n_batches**n_workers)


def coverage_probability_exact_n(n_batches: int, n_workers: int) -> ExactProbability:
    """Probability that the N-th draw is the one completing coverage of B batches.

    Exactly B! * S(N-1, B-1) / B^N, that is B times the surjections of N-1
    draws onto B-1 batches over B^N. Summing over N = B..M telescopes to
    coverage_probability(B, M). Guarded like coverage_probability.
    """
    _require_positive_int(n_batches, "n_batches")
    _require_positive_int(n_workers, "n_workers")
    if n_batches > n_workers:
        return ExactProbability(0, 1)
    _require_batch_worker_product(n_batches, n_workers, "the surjection sum")
    num = n_batches * _surjections(n_workers - 1, n_batches - 1)
    return ExactProbability(num, n_batches**n_workers)


def expected_time_balanced_rational(n_workers: int, n_batches: int) -> Fraction:
    """Exact rate-1 expected completion time of the balanced assignment, (B/N)*H_B."""
    _require_positive_int(n_workers, "n_workers")
    _require_positive_int(n_batches, "n_batches")
    if n_workers % n_batches != 0:
        raise NonDivisibleError(
            f"balanced assignment needs n_batches={n_batches} dividing n_workers={n_workers}"
        )
    return Fraction(n_batches, n_workers) * harmonic(n_batches)


def expected_time_balanced(n_workers: int, n_batches: int, rate: float = 1.0) -> float:
    """Expected completion time of the balanced assignment: (B/(N*rate))*H_B.

    Each batch is held by N/B workers, so its recovery time is exponential
    at rate (N/B)*rate, and the job is the max of B such independent times.
    """
    rate = _require_positive_real(rate, "rate")
    return float(expected_time_balanced_rational(n_workers, n_batches)) / rate


def _survival_polynomial(counts: Sequence[int]) -> list[int]:
    """Coefficients of prod_i (1 - x^c_i) for replica counts c_i.

    Coefficient w aggregates the signed count of batch subsets whose replica
    counts sum to w, which is exactly how equal-denominator terms group in
    the inclusion-exclusion sum for E[max of batch minima]. Each factor
    updates only the degrees reached so far, and the factors go in
    ascending order of c_i, so the large ones update few coefficients: at
    most about B * N / 2 updates in all, reached when the counts are equal.
    """
    poly = [0] * (sum(counts) + 1)
    poly[0] = 1
    degree = 0
    for c in sorted(counts):
        degree += c
        for w in range(degree, c - 1, -1):
            poly[w] -= poly[w - c]
    return poly


def _checked_counts(vector: AssignmentVector | Sequence[int]) -> tuple[int, ...]:
    counts = _require_counts(vector)
    _require_batch_worker_product(len(counts), sum(counts), "inclusion-exclusion")
    if any(c == 0 for c in counts):
        raise UncoveredBatchError(
            "assignment leaves some batch with no worker, so the job cannot complete"
        )
    return counts


def expected_time_assignment_rational(vector: AssignmentVector | Sequence[int]) -> Fraction:
    """Exact rate-1 E[max_i min-of-c_i exponentials] for replica counts c_i.

    Inclusion-exclusion over non-empty batch subsets U gives
    sum (-1)^(|U|+1) / sum_{i in U} c_i; subsets with equal count sums are
    aggregated through the product expansion of prod_i (1 - x^c_i).
    """
    poly = _survival_polynomial(_checked_counts(vector))
    # Sum over the common denominator lcm(1..w), reducing once at the end:
    # adding Fractions would take a big-integer gcd at every term.
    num, den = 0, 1
    for w, coef in enumerate(poly):
        if w and coef:
            g = math.gcd(den, w)
            num = num * (w // g) - coef * (den // g)
            den *= w // g
    return Fraction(num, den)


def expected_time_assignment(
    vector: AssignmentVector | Sequence[int],
    rate: float = 1.0,
    *,
    exact: bool = True,
) -> float:
    """Expected completion time of a non-overlapping assignment vector.

    Batch i with c_i replicas recovers at the min of c_i exponentials; the
    job is the max over batches. The alternating sum is carried out in
    rational arithmetic and rounded once, so the float is correctly rounded
    at rate 1. ``exact`` is accepted and ignored: there is no other route.
    Raises ComplexityGuardError when B * N exceeds MAX_BATCH_WORKER_PRODUCT.
    """
    rate = _require_positive_real(rate, "rate")
    return float(expected_time_assignment_rational(vector)) / rate


def expected_time_cyclic_rational(n_workers: int, n_batches: int) -> Fraction:
    """Exact rate-1 expected completion time of the cyclic overlapping layout.

    The G = N/B recovery groups are disjoint B-worker sets, so the job time
    is the min over G independent maxima of B exponentials. Integrating the
    survival function (1 - (1 - e^-t)^B)^G by the substitution u = e^-t
    yields sum_{j=1..G} (-1)^(j+1) C(G, j) H_{jB}.
    """
    _require_positive_int(n_workers, "n_workers")
    _require_positive_int(n_batches, "n_batches")
    if n_workers % n_batches != 0:
        raise NonDivisibleError(
            f"cyclic layout needs n_batches={n_batches} dividing n_workers={n_workers}"
        )
    n_groups = n_workers // n_batches
    total = Fraction(0)
    h = Fraction(0)  # H_{jB}, extended by B terms per j
    for j in range(1, n_groups + 1):
        h += sum(Fraction(1, k) for k in range((j - 1) * n_batches + 1, j * n_batches + 1))
        term = math.comb(n_groups, j) * h
        total += term if j % 2 == 1 else -term
    return total


def expected_time_cyclic(n_workers: int, n_batches: int, rate: float = 1.0) -> float:
    """Expected completion time of the cyclic overlapping layout at the given rate."""
    rate = _require_positive_real(rate, "rate")
    return float(expected_time_cyclic_rational(n_workers, n_batches)) / rate


def incomplete_subset_counts(
    structure: RecoveryStructure | Iterable[Iterable[int]], n_workers: int
) -> tuple[int, ...]:
    """a_k for k = 0..N: how many k-subsets of workers contain no complete group.

    These are the coefficients of the completion-time survival function in
    the finished-worker count. Enumerates all 2^N subsets with bit masks;
    guarded at N <= 24.
    """
    groups = _require_groups(structure)
    _require_positive_int(n_workers, "n_workers")
    if n_workers > MAX_STRUCTURE_WORKERS:
        raise ComplexityGuardError(
            f"subset enumeration over {n_workers} workers exceeds the "
            f"N <= {MAX_STRUCTURE_WORKERS} guard; estimate by Monte Carlo instead"
        )
    group_masks = []
    for g in groups:
        if max(g) >= n_workers:
            raise DomainError(f"group {sorted(g)} references a worker >= {n_workers}")
        group_masks.append(np.uint32(sum(1 << w for w in g)))
    masks = np.arange(1 << n_workers, dtype=np.uint32)
    contains_group = np.zeros(masks.shape, dtype=bool)
    for gm in group_masks:
        contains_group |= (masks & gm) == gm
    sizes = np.bitwise_count(masks[~contains_group])
    counts = np.bincount(sizes, minlength=n_workers + 1)
    return tuple(int(c) for c in counts)


def expected_time_structure_rational(
    structure: RecoveryStructure | Iterable[Iterable[int]], n_workers: int
) -> Fraction:
    """Exact rate-1 expected completion time for an arbitrary recovery structure.

    With T the first instant some group has fully finished and
    p(t) = 1 - e^-t the per-worker finish probability,
    P(T > t) = sum_k a_k p^k (1-p)^(N-k) over the incomplete subset counts
    a_k. Integrating over t with the substitution p = 1 - e^-t turns each
    term into a Beta integral, giving sum_k a_k * k! * (N-k-1)! / N!.
    """
    a = incomplete_subset_counts(structure, n_workers)
    n = n_workers
    fact_n = math.factorial(n)
    total = Fraction(0)
    for k in range(n):
        if a[k]:
            total += Fraction(a[k] * math.factorial(k) * math.factorial(n - k - 1), fact_n)
    return total


def exact_expected_time_structure(
    structure: RecoveryStructure | Iterable[Iterable[int]],
    n_workers: int,
    rate: float = 1.0,
) -> float:
    """Expected completion time when the job ends as soon as some group finishes.

    Exact subset-enumeration oracle, independent of the closed forms for the
    specific policies; cost 2^N, guarded at N <= 24.
    """
    rate = _require_positive_real(rate, "rate")
    return float(expected_time_structure_rational(structure, n_workers)) / rate


def rearranged(vector: Iterable[int]) -> tuple[int, ...]:
    """The same multiset of non-negative counts sorted non-increasing."""
    return tuple(sorted((_require_nonneg_int(v, "vector entry") for v in vector), reverse=True))


def majorizes(v: Iterable[int], w: Iterable[int]) -> bool:
    """Whether v majorizes w: equal totals and dominating sorted prefix sums.

    Majorization orders equal-sum vectors by imbalance; expected completion
    time is monotone along it, which is what makes the balanced vector
    optimal.
    """
    rv = rearranged(v)
    rw = rearranged(w)
    if len(rv) != len(rw):
        raise DomainError(f"vectors must have equal length, got {len(rv)} and {len(rw)}")
    sum_v = 0
    sum_w = 0
    for a, b in zip(rv, rw):
        sum_v += a
        sum_w += b
        if sum_v < sum_w:
            return False
    return sum_v == sum_w


def is_balanced_minimal(vector: AssignmentVector | Sequence[int]) -> bool:
    """Whether the vector is the balanced one: every batch held by the same
    positive number of workers. Such a vector is majorized by every other
    vector of equal length and sum."""
    counts = _require_counts(vector)
    return counts[0] > 0 and all(c == counts[0] for c in counts)
