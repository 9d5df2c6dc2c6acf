"""Reference implementations that several test modules compare against.

Each is written for clarity, shares no code with ``batchlat``, and is imported
by the tests alone.
"""

import itertools
import math
from fractions import Fraction

import numpy as np


def stirling2(n: int, k: int) -> int:
    """S(n, k) by the recurrence S(n, k) = k*S(n-1, k) + S(n-1, k-1) with
    S(0, 0) = 1, on one rolling row of the triangle; 0 when k > n."""
    row = [1] + [0] * k
    for _ in range(n):
        for j in range(k, 0, -1):
            row[j] = j * row[j] + row[j - 1]
        row[0] = 0
    return row[k]


def coverage_exact_n(b: int, n: int) -> Fraction:
    """P(the n-th of n uniform draws over b batches completes coverage),
    b! * S(n-1, b-1) / b^n for b, n >= 1."""
    return Fraction(math.factorial(b) * stirling2(n - 1, b - 1), b**n)


def compositions(total: int, parts: int):
    """All orderings of `total` into `parts` positive integers."""
    for cuts in itertools.combinations(range(1, total), parts - 1):
        bounds = (0,) + cuts + (total,)
        yield tuple(bounds[i + 1] - bounds[i] for i in range(parts))


def product_groups(counts) -> list[frozenset]:
    """Recovery groups equivalent to a non-overlapping vector: one replica
    per batch, all combinations. Workers numbered batch by batch."""
    offsets = [0]
    for c in counts[:-1]:
        offsets.append(offsets[-1] + c)
    choices = [range(offsets[i], offsets[i] + counts[i]) for i in range(len(counts))]
    return [frozenset(pick) for pick in itertools.product(*choices)]


def full_mask_counts(groups, n: int) -> tuple[int, ...]:
    """a_k, the count of k-subsets of n workers that hold no whole group, by
    testing every group against all 2^n subset masks, 2^20 at a time."""
    gms = [np.uint32(sum(1 << w for w in g)) for g in groups]
    counts = np.zeros(n + 1, dtype=np.int64)
    for start in range(0, 1 << n, 1 << 20):
        masks = np.arange(start, min(start + (1 << 20), 1 << n), dtype=np.uint32)
        contains = np.zeros(masks.shape, dtype=bool)
        for gm in gms:
            contains |= (masks & gm) == gm
        counts += np.bincount(np.bitwise_count(masks[~contains]), minlength=n + 1)
    return tuple(int(c) for c in counts)
