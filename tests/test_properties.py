"""Differential properties across the thresholds where a route or a kernel
path switches: each exact route against a second route or a brute force,
and each sampling kernel against a naive numpy reduction, bit for bit; and
a table of hostile values that every public call either accepts or refuses
with a BatchlatError.

Hypothesis runs derandomized and without an example database, so every run
draws the same examples and writes nothing into the checkout.
"""

import itertools
import math
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

import batchlat
from batchlat import BatchlatError, PolicySpec, SimConfig, SystemParams, analytics, policies, sim
from batchlat.analytics import (
    MAX_STRUCTURE_WORKERS,
    expected_time_assignment_rational,
    expected_time_cyclic_rational,
    expected_time_structure_rational,
    incomplete_subset_counts,
)
from batchlat.cli import SweepSpec
from batchlat.model import _shown

SETTINGS = settings(derandomize=True, database=None, deadline=None)

# With no database, hypothesis still caches the constants it reads from local
# modules, when it collects a property test, under ./.hypothesis by default.
# This directory takes them instead and is removed when the run ends.
_STORAGE = tempfile.TemporaryDirectory(prefix="hypothesis-")
set_hypothesis_home_dir(_STORAGE.name)


@st.composite
def _structures(draw):
    """(N, groups) with N <= 10 and 1 to 20 distinct groups, on both sides of
    the union route's group limit."""
    n = draw(st.integers(1, 10))
    k = draw(st.integers(1, min(20, 2**n - 1)))
    worker_sets = st.frozensets(st.integers(0, n - 1), min_size=1)
    return n, draw(st.lists(worker_sets, min_size=k, max_size=k, unique=True))


def _brute_subset_counts(groups, n):
    """a_k by testing every one of the 2^N subsets against every group."""
    subsets = np.arange(1 << n)
    complete = np.zeros(1 << n, dtype=bool)
    for g in groups:
        mask = sum(1 << w for w in g)
        complete |= subsets & mask == mask
    sizes = np.array([s.bit_count() for s in range(1 << n)])
    return tuple(np.bincount(sizes[~complete], minlength=n + 1).tolist())


@settings(SETTINGS, max_examples=80)
@given(_structures())
def test_subset_count_routes_agree(structure):
    n, groups = structure
    masks = {sum(1 << w for w in g) for g in groups}
    brute = _brute_subset_counts(groups, n)
    assert analytics._subset_counts_by_union(masks, n) == brute
    assert analytics._subset_counts_by_closure(masks, n) == brute
    assert incomplete_subset_counts(groups, n) == brute


def _replicated_groups(counts):
    """One group per pick of one replica of each batch, batch i's replicas
    being the next counts[i] workers."""
    ends = list(itertools.accumulate(counts))
    runs = [range(end - c, end) for c, end in zip(counts, ends)]
    return [frozenset(pick) for pick in itertools.product(*runs)]


@st.composite
def _compositions(draw):
    """Positive replica counts summing to N <= 10, cut at a drawn set of points."""
    n = draw(st.integers(1, 10))
    cuts = sorted(draw(st.sets(st.integers(1, max(n - 1, 1)), max_size=n - 1)))
    return n, [b - a for a, b in zip([0, *cuts], [*cuts, n])]


@settings(SETTINGS, max_examples=60)
@given(_compositions())
def test_assignment_route_equals_structure_route(composition):
    n, counts = composition
    assert expected_time_assignment_rational(counts) == expected_time_structure_rational(
        _replicated_groups(counts), n
    )


def test_cyclic_route_equals_structure_route():
    # every (N, B) with B | N and N <= 64 that the structure route accepts:
    # any N <= 24, and past that fewer than 16 groups of the N/B stride sets
    checked = 0
    for n in range(1, 65):
        for b in range(1, n + 1):
            size = n // b
            if n % b or (n > MAX_STRUCTURE_WORKERS and size >= analytics._UNION_GROUP_LIMIT):
                continue
            groups = [range(r, n, size) for r in range(size)]
            assert expected_time_cyclic_rational(n, b) == expected_time_structure_rational(
                groups, n
            ), (n, b)
            checked += 1
    assert checked == 216


def _uniforms(seed, m, width):
    """m rows of ``width`` uniforms from the seed; a coarse grid in half the
    cases, so that ties and exact zeros occur."""
    rng = np.random.default_rng(seed)
    if seed % 2:
        return rng.integers(0, 4, size=(m, width)) / 4
    return rng.random((m, width))


@st.composite
def _folds(draw):
    n = draw(st.integers(1, 12))
    column = st.integers(0, n - 1)
    columns = draw(st.lists(st.lists(column, min_size=1, max_size=6), min_size=1, max_size=8))
    return draw(st.integers(0, 2**32 - 1)), draw(st.integers(1, 40)), n, columns


@settings(SETTINGS, max_examples=100)
@given(_folds(), st.sampled_from([(np.minimum, np.maximum, 0.0), (np.maximum, np.minimum, np.inf)]))
@example((0, 5, 3, [[0, 1], [1, 2], [2, 0]]), (np.maximum, np.minimum, np.inf))  # repeats
@example((1, 5, 3, [[2]]), (np.minimum, np.maximum, 0.0))  # one column, no copy
def test_run_fold_equals_naive_reduction(fold, ufuncs):
    seed, m, n, columns = fold
    inner, outer, start = ufuncs
    u = _uniforms(seed, m, n)
    want = np.full(m, start)
    for cols in columns:
        want = outer(want, inner.reduce(u[:, cols], axis=1))
    got = sim._run_fold(u, columns=columns, inner=inner, outer=outer, start=start)
    assert got.tobytes() == want.tobytes()


@settings(SETTINGS, max_examples=100)
@given(st.integers(0, 2**32 - 1), st.integers(1, 40), st.integers(1, 12), st.integers(1, 12))
def test_run_random_cc_equals_naive_reduction(seed, m, n, b):
    u = _uniforms(seed, m, 2 * n)
    batch = np.minimum((u[:, :n] * b).astype(np.int64), b - 1)
    service = u[:, n:]
    # per batch, the min over its workers' service uniforms; inf if it has none
    mins = [np.where(batch == j, service, np.inf).min(axis=1) for j in range(b)]
    want = np.max(mins, axis=0)
    got = sim._run_random_cc(u, n_batches=b)
    assert got.tobytes() == want.tobytes()


# Values that a caller could pass by mistake in place of a size, a rate, a
# seed, a list or an object: wrong types, wrong signs, non-finite floats,
# sizes past every guard, ints past the 4300 digits that repr() formats, and
# numpy scalars (a numpy integer is accepted where an int belongs, and any of
# them where a rate belongs, converted to a Python number first).
HOSTILE = [
    0, -1, 1.5, True, None, "3", b"3", [1], {}, {1: 2}, set(), math.nan, math.inf, -math.inf,
    2**64, 10**400, 10**5000, -10**5000, np.int64(4), np.int64(-1), np.float32(2.0), object(),
]

_GROUPS = [{0, 1}, {2, 3}]
_SPEC = PolicySpec("balanced")
_SYSTEM = SystemParams(6, 6, 3)

# Each public call with valid positional arguments, small enough that the
# whole table runs in well under a second.
CALLS = {
    "SystemParams": (SystemParams, (6, 6, 3, 1.0)),
    "RecoveryStructure": (batchlat.RecoveryStructure, (_GROUPS,)),
    "PolicyKind": (policies.PolicyKind, ("cyclic",)),
    "PolicySpec[explicit-vector]": (PolicySpec, ("explicit-vector", (2, 2, 2))),
    "PolicySpec[explicit-structure]": (PolicySpec, ("explicit-structure", None, _GROUPS)),
    "PolicySpec.system": (_SPEC.system, (6, 3)),
    "balanced_assignment": (policies.balanced_assignment, (6, 3)),
    "cyclic_layout": (policies.cyclic_layout, (6, 3)),
    "shared_pair_layout": (policies.shared_pair_layout, ()),
    "replicated_nonoverlap_layout": (policies.replicated_nonoverlap_layout, (6, 3)),
    "resolve": (policies.resolve, (_SPEC, _SYSTEM)),
    "harmonic": (analytics.harmonic, (4,)),
    "coverage_probability": (analytics.coverage_probability, (3, 6)),
    "expected_time_balanced": (analytics.expected_time_balanced, (6, 3, 1.0)),
    "expected_time_balanced_rational": (analytics.expected_time_balanced_rational, (6, 3)),
    "expected_time_assignment": (analytics.expected_time_assignment, ((3, 2, 1), 1.0)),
    "expected_time_assignment_rational": (analytics.expected_time_assignment_rational, ((3, 2, 1),)),
    "expected_time_cyclic": (analytics.expected_time_cyclic, (6, 3, 1.0)),
    "expected_time_cyclic_rational": (analytics.expected_time_cyclic_rational, (6, 3)),
    "exact_expected_time_structure": (analytics.exact_expected_time_structure, (_GROUPS, 4, 1.0)),
    "expected_time_structure_rational": (analytics.expected_time_structure_rational, (_GROUPS, 4)),
    "incomplete_subset_counts": (analytics.incomplete_subset_counts, (_GROUPS, 4)),
    "rearranged": (analytics.rearranged, ((1, 3, 2),)),
    "majorizes": (analytics.majorizes, ((2, 2), (3, 1))),
    "SimConfig": (SimConfig, (64, 1, 1.0, _SPEC, _SYSTEM)),
    "monte_carlo": (sim.monte_carlo, (SimConfig(64, 1, 1.0, _SPEC, _SYSTEM),)),
    "coverage_empirical": (sim.coverage_empirical, (3, 6, 64, 1)),
    "derive_seed": (sim.derive_seed, (1, 2)),
    "SweepSpec": (SweepSpec, ((1.0,), (3,), 6, ("balanced",), 64, 1, "sweep.csv", "csv")),
    "SweepSpec.from_dict": (SweepSpec.from_dict, ({"n_workers": 6, "b_values": [3]},)),
}

# Output types, which only the package builds: monte_carlo's estimate and
# resolve's plan.
_OUTPUT_TYPES = {"CompletionEstimate", "Plan"}


def test_hostile_table_covers_every_public_call():
    public = {
        name
        for module in (batchlat, analytics, policies, sim)
        for name in module.__all__
        if callable(obj := getattr(module, name))
        and not (isinstance(obj, type) and issubclass(obj, BaseException))
    }
    covered = {name.split("[")[0].split(".")[0] for name in CALLS}
    assert public - _OUTPUT_TYPES <= covered


@pytest.mark.parametrize("name", CALLS)
def test_hostile_values_are_accepted_or_refused(name):
    """Each argument in turn, the others held valid, takes every hostile
    value: the call returns or raises a BatchlatError, never anything else."""
    call, args = CALLS[name]
    call(*args)  # the valid arguments are accepted
    escaped = []
    for i, value in itertools.product(range(len(args)), HOSTILE):
        try:
            call(*args[:i], value, *args[i + 1 :])
        except BatchlatError:
            pass
        except Exception as exc:  # anything else escaped the checks
            escaped.append(f"argument {i} = {_shown(value)}: {type(exc).__name__}: {exc}")
    assert escaped == []
