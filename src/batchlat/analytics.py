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
from fractions import Fraction
from itertools import repeat
from operator import add, floordiv, mul

import numpy as np

from .model import (
    ComplexityGuardError,
    DomainError,
    RecoveryStructure,
    _require_counts,
    _require_groups,
    _require_nonneg_int,
    _require_ordered,
    _require_positive_int,
    _require_rate,
    _require_replication,
    _shown,
)

__all__ = [
    "MAX_BATCH_WORKER_PRODUCT",
    "MAX_STRUCTURE_WORKERS",
    "harmonic",
    "coverage_probability",
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
]

#: Refuse the assignment-vector and coverage closed forms when B * N exceeds
#: this. On a 2-vCPU Xeon under CPython 3.11 the vector route takes
#: 0.09-0.15 s at (B, N) = (1000, 10000) and 0.35-0.56 s at (3000, 3000).
#: Coverage is also refused past _MAX_POWER_BITS; inside both guards its
#: slowest shapes take 0.55-0.7 s, B = N = 3162 and (300, 31856) at the bits
#: bound, and 0.36-0.45 s at (1000, 10000).
MAX_BATCH_WORKER_PRODUCT = 10**7

# Refuse coverage when B^N has more than this many bits, N * log2(B): reducing
# the fraction against B^N is quadratic in its size. At the bound it takes
# 0.06-0.08 s for B = 3 to 16 on the same Xeon; at 2^20 bits 0.9-1.8 s, and at
# (3, 3333333), inside B * N <= 10^7, 33 s.
_MAX_POWER_BITS = 2**18

# Refuse H_n past this n; the cyclic form, which is H_N at B = N, is refused
# past N = this as well. Merging the n fractions and reducing the result grow
# about quadratically in n: on a 2-vCPU Xeon H_n takes 0.26-0.35 s at
# n = 10^5, 0.95 s at 2 * 10^5 and 20 s at 10^6.
_MAX_HARMONIC_TERMS = 10**5

# Refuse the cyclic form past this many groups G = N/B. Its B residue-class
# products have G factors each; on the same Xeon the slowest accepted shape,
# (N, B) = (100000, 10), takes 0.33-0.35 s with a traced peak of 0.23 MiB,
# and (20000, 2) 26-29 ms and 0.12 MiB (scripts/guard_timings.py).
_MAX_CYCLIC_GROUPS = 10**4

#: Refuse subset counting over more than this many workers, unless the
#: structure has fewer than 16 distinct groups and at most 64 workers. Those
#: are counted by inclusion-exclusion over their at most 2^15 group unions,
#: 0.1-0.3 ms for a cyclic layout at N = 24 on a 2-vCPU Xeon and 0.2-1 ms
#: for cyclic (50, 5), (50, 10), (50, 25), (60, 4) and (64, 8); any other by
#: closing its groups upward over a 2^N-bit set of subsets, 20-40 ms and a
#: traced peak of 6.7 MiB at N = 24 whatever the number of groups.
MAX_STRUCTURE_WORKERS = 24

# Fewer distinct groups than min(N, this) take inclusion-exclusion over their
# at most 2^15 unions; more take the upward closure.
_UNION_GROUP_LIMIT = 16

# The group unions are uint64 masks, so inclusion-exclusion ends at 64 workers.
_MAX_UNION_WORKERS = 64

# Subset S is bit S & 63 of word S >> 6 in the closure. Per in-word worker i,
# the bits of subsets without i; per in-word size s, the bits of that size.
_WITHOUT = np.array(
    [sum(1 << j for j in range(64) if not j >> i & 1) for i in range(6)], dtype=np.uint64
)
_OF_SIZE = np.array(
    [sum(1 << j for j in range(64) if j.bit_count() == s) for s in range(7)], dtype=np.uint64
)


class ExactProbability(Fraction):
    """A probability as an exact reduced rational.

    ``float()`` of it is correctly rounded from the rational (within half an
    ulp), so regimes where the denominator overflows any fixed-width integer
    stay exact until the final conversion. Only ``coverage_probability``
    builds one, from sizes it has checked, so the type checks nothing itself.
    """

    __slots__ = ()

    @property
    def fraction(self) -> Fraction:
        return Fraction(self)

    @property
    def float_value(self) -> float:
        return float(self)

    def __repr__(self) -> str:
        return (
            f"ExactProbability(numerator={_shown(self.numerator)}, "
            f"denominator={_shown(self.denominator)}, float_value={self.float_value!r})"
        )


def _require_batch_worker_product(n_batches: int, n_workers: int, route: str) -> None:
    if n_batches * n_workers > MAX_BATCH_WORKER_PRODUCT:
        raise ComplexityGuardError(
            f"{route} over B={_shown(n_batches)} batches and N={_shown(n_workers)} workers"
            f" exceeds the B*N <= {MAX_BATCH_WORKER_PRODUCT} guard; estimate by Monte Carlo"
            " instead"
        )


def _fold_fractions(p: list[int], q: list[int]) -> tuple[list[int], list[int]]:
    """Unreduced sum of p[i]/q[i], q[i] > 0, as one-entry lists.

    The terms are summed in a balanced tree, one level at a time: the first
    half of the lists merges with the second in a few C-level maps,
    p1/q1 + p2/q2 over lcm(q1, q2), and an odd last term is carried up a
    level.
    """
    while len(p) > 1:
        half = len(p) // 2
        q1, q2 = q[:half], q[half : 2 * half]
        g = list(map(math.gcd, q1, q2))
        a = list(map(floordiv, q2, g))
        p2 = map(mul, p[half : 2 * half], map(floordiv, q1, g))
        p = [*map(add, map(mul, p[:half], a), p2), *p[2 * half :]]
        q = [*map(mul, q1, a), *q[2 * half :]]
    return p, q


def _sum_fractions(p: list[int], q: list[int]) -> Fraction:
    """Exact sum of p[i]/q[i] over equal-length lists, merged level-wise by
    _fold_fractions and reduced once at the end."""
    if not p:
        return Fraction(0)
    (p,), (q,) = _fold_fractions(p, q)
    return Fraction(p, q)


def _product(r: Sequence[int]) -> int:
    """math.prod(r) as a balanced tree over 64-term slices: one running
    product of 10^4 terms goes quadratic in its size."""
    p = [math.prod(r[j : j + 64]) for j in range(0, len(r), 64)]
    while len(p) > 1:
        half = len(p) // 2
        p = [*map(mul, p[:half], p[half : 2 * half]), *p[2 * half :]]
    return p[0]


def harmonic(n: int) -> Fraction:
    """Exact n-th harmonic number H_n = 1 + 1/2 + ... + 1/n.

    Returned as a Fraction, which serves as both the exact rational and,
    via float(), the real value. H_n is the expected maximum of n
    independent unit-rate exponential variables. Raises
    ComplexityGuardError past n = 10^5.
    """
    n = _require_positive_int(n, "n")
    if n > _MAX_HARMONIC_TERMS:
        raise ComplexityGuardError(
            f"harmonic number H_{_shown(n)} exceeds the n <= {_MAX_HARMONIC_TERMS} guard; "
            "estimate by Monte Carlo instead"
        )
    return _sum_fractions([1] * n, list(range(1, n + 1)))


def _powers(n: int, k: int) -> list[int]:
    """[i**n for i in range(k + 1)], with one pow per odd prime i: an even i is
    (i/2)^n << n, and an odd composite i the product of the entries of its
    smallest prime factor f, from a sieve, and of i/f."""
    spf = list(range(k + 1))
    for f in range(math.isqrt(k) | 1, 1, -2):  # descending, so the smallest f is written last
        spf[f * f :: 2 * f] = [f] * len(range(f * f, k + 1, 2 * f))
    p = [0**n, 1][: k + 1]
    for i in range(2, k + 1):
        f = spf[i]
        p.append(p[i >> 1] << n if i % 2 == 0 else i**n if f == i else p[f] * p[i // f])
    return p


def _surjections(n: int, k: int) -> int:
    """Maps from an n-set onto a k-set: sum_i (-1)^(k-i) C(k,i) i^n."""
    total, binom = 0, 1  # binom = C(k, i): one small division a term, not one math.comb
    for i, power in enumerate(_powers(n, k)):
        total = binom * power - total  # so term i ends with the sign (-1)^(k-i)
        binom = binom * (k - i) // (i + 1)
    return total


def coverage_probability(n_batches: int, n_workers: int) -> ExactProbability:
    """Probability that N uniform with-replacement batch draws hit all B batches.

    Exactly B! * S(N, B) / B^N, S a Stirling number of the second kind: the
    surjections from workers onto batches, by the alternating sum, over the
    assignment outcomes. Exact zero when B > N (too few draws to cover);
    ComplexityGuardError when B * N exceeds MAX_BATCH_WORKER_PRODUCT or B^N
    has more than 2^18 bits, a bound that is conservative at B = 2, where
    the reduction of the fraction takes one gcd step.
    """
    n_batches = _require_positive_int(n_batches, "n_batches")
    n_workers = _require_positive_int(n_workers, "n_workers")
    if n_batches > n_workers:
        return ExactProbability(0, 1)
    _require_batch_worker_product(n_batches, n_workers, "the surjection sum")
    if n_workers * math.log2(n_batches) > _MAX_POWER_BITS:
        raise ComplexityGuardError(
            f"coverage over B={n_batches} batches and N={n_workers} workers exceeds the N*log2(B)"
            f" <= {_MAX_POWER_BITS} guard on the bits of B^N; estimate by Monte Carlo instead"
        )
    return ExactProbability(_surjections(n_workers, n_batches), n_batches**n_workers)


def expected_time_balanced_rational(n_workers: int, n_batches: int) -> Fraction:
    """Exact rate-1 expected completion time of the balanced assignment, (B/N)*H_B."""
    n_workers, n_batches, _ = _require_replication(n_workers, n_batches, "balanced assignment")
    return Fraction(n_batches, n_workers) * harmonic(n_batches)


def expected_time_balanced(n_workers: int, n_batches: int, rate: float = 1.0) -> float:
    """Expected completion time of the balanced assignment: (B/(N*rate))*H_B.

    Each batch is held by N/B workers, so its recovery time is exponential
    at rate (N/B)*rate, and the job is the max of B such independent times.
    """
    rate = _require_rate(rate, "rate")
    return float(expected_time_balanced_rational(n_workers, n_batches)) / rate


def _survival_polynomial(counts: Sequence[int]) -> np.ndarray:
    """Coefficients of prod_i (1 - x^c_i) for replica counts c_i.

    Coefficient w aggregates the signed count of batch subsets whose replica
    counts sum to w, which is exactly how equal-denominator terms group in
    the inclusion-exclusion sum for E[max of batch minima]. Each factor, in
    ascending c_i, is one numpy slice update over the degrees reached so far.
    After j factors no coefficient exceeds 2^j in absolute value, so int64 is
    exact up to B = 62 batches; wider vectors use Python ints.
    """
    poly = np.zeros(sum(counts) + 1, dtype=np.int64 if len(counts) <= 62 else object)
    poly[0] = 1
    degree = 0
    for c in sorted(counts):
        degree += c
        poly[c : degree + 1] -= poly[: degree - c + 1].copy()
    return poly


def expected_time_assignment_rational(vector: Sequence[int]) -> Fraction:
    """Exact rate-1 E[max_i min-of-c_i exponentials] for replica counts c_i.

    Inclusion-exclusion over non-empty batch subsets U gives
    sum (-1)^(|U|+1) / sum_{i in U} c_i; subsets with equal count sums are
    aggregated, with the opposite sign, in the expansion of prod_i (1 - x^c_i).
    """
    counts = _require_counts(vector)
    _require_batch_worker_product(len(counts), sum(counts), "inclusion-exclusion")
    poly = _survival_polynomial(counts)
    w = np.flatnonzero(poly)[1:]  # the constant term is 1 and is not summed
    return -_sum_fractions(poly[w].tolist(), w.tolist())


def expected_time_assignment(
    vector: Sequence[int],
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
    rate = _require_rate(rate, "rate")
    return float(expected_time_assignment_rational(vector)) / rate


def expected_time_cyclic_rational(n_workers: int, n_batches: int) -> Fraction:
    """Exact rate-1 expected completion time of the cyclic overlapping layout.

    The G = N/B recovery groups are disjoint B-worker sets, so the job time
    is the min over G independent maxima of B exponentials. Integrating the
    survival function (1 - (1 - e^-t)^B)^G by the substitution x = e^-t
    yields sum_{j=1..G} (-1)^(j+1) C(G, j) H_{jB}, that is sum_{k=1..N}
    (-1)^s C(G-1, s) / k with k = i + s*B. The terms of one residue class
    i = 1..B sum to a Beta integral:

        sum_{s<G} (-1)^s C(G-1, s) / (i + s*B) = int_0^1 x^(i-1) (1 - x^B)^(G-1) dx
                                               = (G-1)! B^(G-1) / D_i,

    with D_i = prod_{s<G} (i + s*B): expand (1 - x^B)^(G-1) for the left
    side, and substitute y = x^B to get Beta(i/B, G) / B for the right. So
    the value is (G-1)! B^(G-1) sum_{i=1..B} 1/D_i, a sum of B terms, not N.
    Raises ComplexityGuardError past N = 10^5 or G = 10^4.
    """
    n_workers, n_batches, n_groups = _require_replication(n_workers, n_batches, "cyclic layout")
    if n_workers > _MAX_HARMONIC_TERMS or n_groups > _MAX_CYCLIC_GROUPS:
        raise ComplexityGuardError(
            f"cyclic layout over N={_shown(n_workers)} workers in G={_shown(n_groups)} groups "
            f"exceeds the N <= {_MAX_HARMONIC_TERMS} and G <= {_MAX_CYCLIC_GROUPS} guard; "
            "estimate by Monte Carlo instead"
        )
    # (G-1)! = u * m, where u = gcd((G-1)!, B^(G-1)) holds every prime of B in
    # (G-1)!, since v_p((G-1)!) <= G-1, and m none. For p not dividing B, the
    # G terms of a class take every residue mod p^j at least floor(G / p^j)
    # times, so m divides each D_i, and the value is u B^(G-1) sum_i 1/(D_i/m).
    power = n_batches ** (n_groups - 1)
    f = math.factorial(n_groups - 1)
    u = math.gcd(f, power)
    classes = map(range, range(1, n_batches + 1), repeat(n_workers + 1), repeat(n_batches))
    d = map(_product, classes)
    (p,), (q,) = _fold_fractions([1] * n_batches, list(map(floordiv, d, repeat(f // u))))
    return Fraction(u * power * p, q)


def expected_time_cyclic(n_workers: int, n_batches: int, rate: float = 1.0) -> float:
    """Expected completion time of the cyclic overlapping layout at the given rate."""
    rate = _require_rate(rate, "rate")
    return float(expected_time_cyclic_rational(n_workers, n_batches)) / rate


def incomplete_subset_counts(
    structure: RecoveryStructure | Iterable[Iterable[int]], n_workers: int
) -> tuple[int, ...]:
    """a_k for k = 0..N: how many k-subsets of workers contain no complete group.

    These are the coefficients of the completion-time survival function in
    the finished-worker count. Fewer distinct groups than min(N, 16) are
    counted by inclusion-exclusion over their at most 2^15 unions, in
    O(2^groups) numpy work; more, whose unions would outnumber the subsets,
    by closing the groups upward over the 2^N subsets, in O(N * 2^N / 64)
    word operations whatever the number of groups: at N = 24 on a 2-vCPU
    Xeon, 20-40 ms and a traced peak of 6.7 MiB. Refused past N = 24,
    unless there are fewer than 16 distinct groups and N <= 64.
    """
    n_workers = _require_positive_int(n_workers, "n_workers")
    if n_workers <= _MAX_UNION_WORKERS:
        masks = {sum(1 << w for w in g) for g in _require_groups(structure, n_workers)}
        if len(masks) < min(n_workers, _UNION_GROUP_LIMIT):
            return _subset_counts_by_union(masks, n_workers)
        if n_workers <= MAX_STRUCTURE_WORKERS:
            return _subset_counts_by_closure(masks, n_workers)
    raise ComplexityGuardError(
        f"subset enumeration over {_shown(n_workers)} workers exceeds the"
        f" N <= {MAX_STRUCTURE_WORKERS} guard (N <= {_MAX_UNION_WORKERS} with fewer than"
        f" {_UNION_GROUP_LIMIT} distinct groups); estimate by Monte Carlo instead"
    )


def _subset_counts_by_union(masks: Iterable[int], n_workers: int) -> tuple[int, ...]:
    """a_k by inclusion-exclusion: the k-subsets holding the union of a set S
    of groups, of u workers, number C(N - u, k - u), with the sign (-1)^|S|.
    The table is built by doubling, so entry i is the union of the groups
    whose bits are set in i, and its sign is the parity of i."""
    unions = np.zeros(1, dtype=np.uint64)
    for m in masks:
        unions = np.concatenate((unions, unions | m))
    odd = np.bitwise_count(np.arange(unions.size, dtype=np.uint32)) & 1 == 1
    sizes, n = np.bitwise_count(unions), n_workers
    c = np.bincount(sizes[~odd], minlength=n + 1) - np.bincount(sizes[odd], minlength=n + 1)
    c = c.tolist()  # signed count of unions by size
    return tuple(sum(c[u] * math.comb(n - u, k - u) for u in range(k + 1)) for k in range(n + 1))


def _subset_counts_by_closure(masks: Iterable[int], n_workers: int) -> tuple[int, ...]:
    """a_k by the OR form of the fast zeta transform: with subset S as bit
    S & 63 of word S >> 6, set the bit of each group, then close the set
    upward one worker at a time, within words for workers 0..5 and across
    words for the rest. The clear bits are the subsets holding no group, and
    a_k counts those of size k."""
    n_low = min(n_workers, 6)
    n_high = n_workers - n_low
    words = np.zeros(1 << n_high, dtype=np.uint64)
    m = np.fromiter(masks, dtype=np.uint64)
    np.bitwise_or.at(words, m >> np.uint64(6), np.uint64(1) << (m & np.uint64(63)))
    for i in range(n_low):
        words |= (words & _WITHOUT[i]) << np.uint64(1 << i)
    for i in range(n_high):
        half = words.reshape(-1, 2, 1 << i)
        half[:, 1] |= half[:, 0]
    np.invert(words, out=words)
    if n_workers < 6:
        words &= np.uint64((1 << (1 << n_workers)) - 1)
    high_sizes = np.bitwise_count(np.arange(words.size, dtype=np.uint32))
    counts = np.zeros(n_workers + 1, dtype=np.int64)
    for s in range(n_low + 1):
        clear = np.bitwise_count(words & _OF_SIZE[s])
        counts[s : s + n_high + 1] += np.bincount(high_sizes, clear, n_high + 1).astype(np.int64)
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
    # Every term shares the denominator N!, so one reduction at the end.
    num = sum(a[k] * math.factorial(k) * math.factorial(n - k - 1) for k in range(n))
    return Fraction(num, math.factorial(n))


def exact_expected_time_structure(
    structure: RecoveryStructure | Iterable[Iterable[int]],
    n_workers: int,
    rate: float = 1.0,
) -> float:
    """Expected completion time when the job ends as soon as some group finishes.

    Exact oracle from incomplete_subset_counts, independent of the closed
    forms for the specific policies: inclusion-exclusion over group unions
    below min(N, 16) distinct groups, else the upward closure over the 2^N
    subsets, 20-40 ms at N = 24 whatever the number of groups. Refused past
    N = 24, unless there are fewer than 16 distinct groups and N <= 64.
    """
    rate = _require_rate(rate, "rate")
    return float(expected_time_structure_rational(structure, n_workers)) / rate


def rearranged(vector: Iterable[int]) -> tuple[int, ...]:
    """The same multiset of non-negative counts sorted non-increasing."""
    entries = (_require_nonneg_int(v, "vector entry") for v in _require_ordered(vector, "vector"))
    return tuple(sorted(entries, reverse=True))


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
