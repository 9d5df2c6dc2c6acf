"""Command-line front end for the batch-assignment latency toolkit.

Subcommands: ``coverage`` (exact and empirical batch-coverage tables),
``analyze`` (exact expected completion times and majorization report),
``simulate`` (seeded Monte Carlo estimate for one configuration), ``sweep``
(rate grids written to CSV/JSON for plotting), and ``compare-fig4`` (the
fixed six-worker comparison of the three overlapping-batching policies).

Exit codes: 0 success; 2 usage or domain errors; 3 complexity-guard,
no-coverage or out-of-memory errors; 4 I/O errors.

Sweep configs are flat JSON objects whose keys are exactly the SweepSpec
field names; explicit command-line flags override config values. The
``BATCHLAT_THREADS`` environment variable (1 to 256) sets how many grid
points run concurrently; every grid point owns a seed derived from (seed,
point index), so the thread count never changes numerical results.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import os
import sys
from collections.abc import Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields
from decimal import Decimal, InvalidOperation

import numpy as np

from . import analytics
from .model import (
    ComplexityGuardError,
    DomainError,
    NoCoverageError,
    SystemParams,
    UncoveredBatchError,
    _require_positive_int,
    _require_positive_real,
    _require_seed,
)
from .policies import (
    Plan,
    PolicyKind,
    PolicySpec,
    balanced_assignment,
    cyclic_layout,
    replicated_nonoverlap_layout,
    resolve,
    shared_pair_layout,
    validate_policy,
)
from .sim import SimConfig, coverage_empirical, derive_seed, monte_carlo

__all__ = [
    "SweepSpec",
    "DEFAULT_RATES",
    "DEFAULT_SEED",
    "THREADS_ENV_VAR",
    "EXIT_OK",
    "EXIT_USAGE",
    "EXIT_GUARD",
    "EXIT_IO",
    "run_sweep",
    "build_parser",
    "main",
]

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_GUARD = 3
EXIT_IO = 4

THREADS_ENV_VAR = "BATCHLAT_THREADS"
_MAX_THREADS = 256
DEFAULT_SEED = 12345

#: Default sweep grid: 20 log-spaced rates covering both the low-rate
#: (large-gap) and high-rate (small-gap) regimes.
DEFAULT_RATES: tuple[float, ...] = tuple(float(r) for r in np.logspace(-1.0, 1.0, 20))

_MIN_SAMPLES_FOR_CI = 1000
_MAX_COUNT = 2**53

_SWEEP_COLUMNS = ("policy", "N", "B", "rate", "mean", "ci_low", "ci_high", "exact", "n_samples", "seed")


def _fmt(x: float) -> str:
    """Format a float with 9 significant digits, locale-independent."""
    return format(float(x), ".9g")


def _require_ci_samples(samples: int) -> None:
    if samples < _MIN_SAMPLES_FOR_CI:
        raise DomainError(
            f"--samples must be at least {_MIN_SAMPLES_FOR_CI} when confidence "
            "intervals are reported"
        )


def _print_report(lines: list[tuple[str, str]]) -> None:
    """Print ``key: value`` lines with the values aligned in one column."""
    width = max(len(key) for key, _ in lines) + 1
    for key, value in lines:
        print(f"{key + ':':<{width}} {value}")


def _exact_or_none(plan: Plan, rate: float) -> float | None:
    """The plan's exact expected time, or None when no exact method applies
    (random-cc, or instances beyond the complexity guards)."""
    if plan.exact is None:
        return None
    try:
        return plan.exact(rate)
    except ComplexityGuardError:
        return None


@dataclass(frozen=True)
class SweepSpec:
    """A rate-sweep grid; config-file keys are exactly these field names."""

    rates: tuple[float, ...] = DEFAULT_RATES
    b_values: tuple[int, ...] = (5, 10, 25)
    n_workers: int = 50
    policies: tuple[str, ...] = ("balanced", "cyclic")
    n_samples: int = 100_000
    seed: int = DEFAULT_SEED
    output_path: str = "sweep.csv"
    format: str = "csv"

    def __post_init__(self) -> None:
        rates = tuple(self.rates)
        if not rates:
            raise DomainError("rates must be non-empty")
        rates = tuple(_require_positive_real(r, "rate") for r in rates)
        object.__setattr__(self, "rates", rates)
        b_values = tuple(self.b_values)
        if not b_values:
            raise DomainError("b_values must be non-empty")
        for b in b_values:
            _require_positive_int(b, "b_values entry")
        object.__setattr__(self, "b_values", b_values)
        _require_positive_int(self.n_workers, "n_workers")
        policy_names = tuple(self.policies)
        if not policy_names:
            raise DomainError("policies must be non-empty")
        kinds = []
        for name in policy_names:
            kind = PolicyKind(name)
            if kind.carries_payload:
                raise DomainError(
                    f"policy kind {kind.value!r} carries a payload and cannot be swept"
                )
            kinds.append(kind)
        object.__setattr__(self, "policies", tuple(k.value for k in kinds))
        _require_positive_int(self.n_samples, "n_samples")
        _require_seed(self.seed)
        if not isinstance(self.output_path, str) or not self.output_path:
            raise DomainError(f"output_path must be a non-empty string, got {self.output_path!r}")
        if self.format not in ("csv", "json"):
            raise DomainError(f"format must be 'csv' or 'json', got {self.format!r}")
        # Every (policy, B) pair must satisfy its divisibility requirements.
        for kind in kinds:
            for b in b_values:
                validate_policy(PolicySpec(kind), kind.system(self.n_workers, b))

    def to_dict(self) -> dict:
        return {
            "rates": list(self.rates),
            "b_values": list(self.b_values),
            "n_workers": self.n_workers,
            "policies": list(self.policies),
            "n_samples": self.n_samples,
            "seed": self.seed,
            "output_path": self.output_path,
            "format": self.format,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SweepSpec":
        if not isinstance(data, dict):
            raise DomainError(f"sweep config must be an object, got {type(data).__name__}")
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise DomainError(f"unknown sweep config keys: {', '.join(unknown)}")
        kwargs = dict(data)
        for key in ("rates", "b_values", "policies"):
            if key in kwargs:
                value = kwargs[key]
                if isinstance(value, (str, bytes)) or not isinstance(value, Sequence):
                    raise DomainError(f"config key {key!r} must be a list")
                kwargs[key] = tuple(value)
        return cls(**kwargs)


def _thread_count() -> int:
    raw = os.environ.get(THREADS_ENV_VAR)
    if raw is None:
        return 1
    try:
        value = int(raw)
    except ValueError:
        raise DomainError(f"{THREADS_ENV_VAR} must be an integer, got {raw!r}") from None
    if value < 1:
        raise DomainError(f"{THREADS_ENV_VAR} must be >= 1, got {value}")
    if value > _MAX_THREADS:
        raise DomainError(f"{THREADS_ENV_VAR} must be <= {_MAX_THREADS}, got {value}")
    return value


def run_sweep(spec: SweepSpec) -> list[dict]:
    """Run every (policy, B, rate) grid point and write the output file.

    Rows are ordered by (policy, B, rate) ascending, and grid point i draws
    from the child seed derive_seed(spec.seed, i), so output is identical
    for any thread count. Returns the rows that were written.
    """
    points = sorted(itertools.product(spec.policies, spec.b_values, spec.rates))

    def evaluate(index: int) -> dict:
        policy_name, b, rate = points[index]
        kind = PolicyKind(policy_name)
        cfg = SimConfig(
            n_samples=spec.n_samples,
            seed=derive_seed(spec.seed, index),
            rate=rate,
            policy=PolicySpec(kind),
            system=kind.system(spec.n_workers, b, rate),
        )
        estimate = monte_carlo(cfg)
        return {
            "policy": policy_name,
            "N": spec.n_workers,
            "B": b,
            "rate": rate,
            "mean": estimate.mean,
            "ci_low": estimate.ci95_low,
            "ci_high": estimate.ci95_high,
            "exact": _exact_or_none(cfg.plan, rate),
            "n_samples": spec.n_samples,
            "seed": cfg.seed,
        }

    threads = _thread_count()
    if threads == 1:
        rows = [evaluate(i) for i in range(len(points))]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            rows = list(pool.map(evaluate, range(len(points))))
    _write_table(spec.output_path, spec.format, _SWEEP_COLUMNS, rows)
    return rows


def _write_table(path: str, fmt: str, columns: Sequence[str], rows: list[dict]) -> None:
    """Write the given columns of each row as CSV or as a JSON list of objects.

    Floats go through _fmt (JSON reads the digits back, so both formats carry
    the same values); None is an empty CSV cell or a JSON null; other values,
    such as ints, are written as they are.
    """

    def cell(value: object) -> object:
        if not isinstance(value, float):
            return value
        return _fmt(value) if fmt == "csv" else float(_fmt(value))

    table = [[cell(row[c]) for c in columns] for row in rows]
    with open(path, "w", newline="") as fh:
        if fmt == "csv":
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(columns)
            writer.writerows(table)
        else:
            json.dump([dict(zip(columns, values)) for values in table], fh, indent=2)
            fh.write("\n")


# ---------------------------------------------------------------------------
# argument parsing helpers


def _positive_int(text: str) -> int:
    value = int(text)
    if value <= 0:
        raise DomainError(f"expected a positive integer, got {value}")
    return value


def _nonneg_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise DomainError(f"expected a non-negative integer, got {value}")
    return value


def _positive_float(text: str) -> float:
    return _require_positive_real(float(text), "value")


def _count(text: str) -> int:
    """Sample counts from 1 to 2^53; accepts scientific notation like 1e6.

    Parsed as a Decimal, which is exact where a float would round 2^53 + 1
    down to 2^53 and let 1e20 through to the array allocation.
    """
    try:
        value = Decimal(text)
    except InvalidOperation:
        value = Decimal("NaN")
    if not (value.is_finite() and 1 <= value <= _MAX_COUNT and value == int(value)):
        raise DomainError(f"expected a whole number from 1 to 2^53, got {text!r}")
    return int(value)


def _int_list(text: str) -> tuple[int, ...]:
    """Positive-integer list syntax: '7', '5,10,25', '1..10', '1..4,8'."""
    out: list[int] = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if ".." in part:
            lo_text, hi_text = part.split("..", 1)
            lo, hi = int(lo_text), int(hi_text)
            if lo > hi:
                raise DomainError(f"empty range {part!r}")
            out.extend(range(lo, hi + 1))
        else:
            out.append(int(part))
    if not out:
        raise DomainError("expected at least one integer")
    for v in out:
        if v <= 0:
            raise DomainError(f"entries must be positive, got {v}")
    return tuple(out)


def _float_list(text: str) -> tuple[float, ...]:
    out = tuple(float(p) for p in text.split(",") if p.strip())
    if not out:
        raise DomainError("expected at least one number")
    return tuple(_require_positive_real(v, "rate") for v in out)


def _vector_arg(text: str) -> tuple[int, ...]:
    out = tuple(int(p) for p in text.split(",") if p.strip())
    if not out:
        raise DomainError("expected at least one count")
    return out


def _groups_arg(text: str) -> tuple[frozenset[int], ...]:
    """Recovery groups: semicolon-separated worker lists, e.g. '0,2,4;1,3,5'."""
    groups = []
    for part in text.split(";"):
        ids = tuple(int(p) for p in part.split(",") if p.strip())
        if not ids:
            raise DomainError("each group needs at least one worker id")
        groups.append(frozenset(ids))
    return tuple(groups)


def _policy_list(text: str) -> tuple[str, ...]:
    out = tuple(p.strip() for p in text.split(",") if p.strip())
    if not out:
        raise DomainError("expected at least one policy kind")
    return out


def _policy_from_args(args: argparse.Namespace) -> PolicySpec:
    return PolicySpec(
        PolicyKind(args.policy),
        vector=getattr(args, "vector", None),
        groups=getattr(args, "groups", None),
    )


def _infer_shape(spec: PolicySpec, args: argparse.Namespace) -> tuple[int, int]:
    """(n_workers, n_batches) for the command, from the payload or the flags."""
    n = args.n_workers
    b = args.n_batches
    if spec.vector is not None:
        vec_n, vec_b = sum(spec.vector), len(spec.vector)
        if n is not None and n != vec_n:
            raise DomainError(f"--n-workers {n} contradicts the vector total {vec_n}")
        if b is not None and b != vec_b:
            raise DomainError(f"--n-batches {b} contradicts the vector length {vec_b}")
        return vec_n, vec_b
    if spec.kind.fixed_shape is not None:
        fixed_n, fixed_b = spec.kind.fixed_shape
        return (fixed_n if n is None else n), (fixed_b if b is None else b)
    if spec.groups is not None:
        if n is None:
            raise DomainError("--n-workers is required for explicit-structure")
        # The batch count is not derivable from the groups alone; it only
        # feeds the report, so default it to 1 when not given.
        return n, 1 if b is None else b
    if n is None or b is None:
        raise DomainError(f"--n-workers and --n-batches are required for {spec.kind.value}")
    return n, b


# ---------------------------------------------------------------------------
# subcommands


def cmd_coverage(args: argparse.Namespace) -> int:
    want_exact = args.mode in ("exact", "both")
    want_empirical = args.mode in ("empirical", "both")
    rows = []
    index = 0
    for n in sorted(set(args.n_workers)):
        for b in sorted(set(args.n_batches)):
            row = {"B": b, "N": n, "exact": None, "empirical": None}
            if want_exact:
                row["exact"] = analytics.coverage_probability(b, n).float_value
            if want_empirical:
                row["empirical"] = coverage_empirical(
                    b, n, args.samples, derive_seed(args.seed, index)
                )
            rows.append(row)
            index += 1
    values = [c for c, wanted in (("exact", want_exact), ("empirical", want_empirical)) if wanted]
    print(f"{'B':>4} {'N':>4}" + "".join(f" {c:>14}" for c in values))
    for row in rows:
        print(f"{row['B']:>4} {row['N']:>4}" + "".join(f" {_fmt(row[c]):>14}" for c in values))
    if args.out:
        _write_table(args.out, args.format, ["B", "N", *values], rows)
        print(f"wrote {len(rows)} rows to {args.out}")
    return EXIT_OK


def cmd_analyze(args: argparse.Namespace) -> int:
    spec = _policy_from_args(args)
    n, b = _infer_shape(spec, args)
    rate = args.rate
    plan = resolve(spec, spec.kind.system(n, b, rate))
    if plan.exact is None:
        raise DomainError(
            "random-cc re-draws the assignment per trial and has no exact expected "
            "time; use `batchlat simulate --policy random-cc` instead"
        )
    exact = plan.exact(rate)

    lines = [("policy", spec.kind.value)]
    if spec.vector is not None:
        lines.append(("vector", "(" + ", ".join(str(c) for c in spec.vector) + ")"))
    if spec.groups is not None:
        lines.append(
            ("groups", "; ".join("{" + ", ".join(map(str, sorted(g))) + "}" for g in spec.groups))
        )
    lines.append(("n_workers", str(n)))
    # Structure groups do not determine B; without -B there is no bound to show.
    show_bound = spec.groups is None or args.n_batches is not None
    if show_bound:
        lines.append(("n_batches", str(b)))
    lines.append(("rate", _fmt(rate)))
    lines.append(("expected_time", _fmt(exact)))
    if show_bound:
        # Reference value of the balanced assignment on the same shape; it
        # is attainable only when B divides N.
        bound = float(analytics.harmonic(b) * b / n) / rate
        lines.append(("balanced_bound", _fmt(bound)))
        lines.append(("ratio_to_bound", _fmt(exact / bound)))
    if plan.counts is not None and n % b == 0:
        counts = plan.counts
        balanced = balanced_assignment(n, b).counts
        lines.append(("is_balanced", "yes" if analytics.is_balanced_minimal(counts) else "no"))
        lines.append(
            ("majorizes_balanced", "yes" if analytics.majorizes(counts, balanced) else "no")
        )
        lines.append(
            ("majorized_by_balanced", "yes" if analytics.majorizes(balanced, counts) else "no")
        )
    _print_report(lines)
    return EXIT_OK


def cmd_simulate(args: argparse.Namespace) -> int:
    spec = _policy_from_args(args)
    n, b = _infer_shape(spec, args)
    _require_ci_samples(args.samples)
    system = spec.kind.system(n, b, args.rate)
    cfg = SimConfig(
        n_samples=args.samples, seed=args.seed, rate=args.rate, policy=spec, system=system
    )
    estimate = monte_carlo(cfg)
    exact = _exact_or_none(cfg.plan, args.rate)
    lines = [
        ("policy", spec.kind.value),
        ("n_workers", str(n)),
        ("n_batches", str(b)),
        ("rate", _fmt(args.rate)),
        ("n_samples", str(args.samples)),
        ("seed", str(args.seed)),
        ("coverage_rate", _fmt(estimate.coverage_rate)),
        ("mean", _fmt(estimate.mean)),
        ("std_error", _fmt(estimate.std_error)),
        ("ci95", f"[{_fmt(estimate.ci95_low)}, {_fmt(estimate.ci95_high)}]"),
    ]
    if exact is not None:
        lines.append(("exact", _fmt(exact)))
        lines.append(("within_ci", "yes" if estimate.contains(exact) else "no"))
    _print_report(lines)
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    merged = SweepSpec().to_dict()
    if args.config is not None:
        with open(args.config) as fh:
            try:
                loaded = json.load(fh)
            except json.JSONDecodeError as exc:
                raise DomainError(f"invalid JSON in {args.config}: {exc}") from None
        if not isinstance(loaded, dict):
            raise DomainError(f"config {args.config} must hold a JSON object")
        merged.update(loaded)
    overrides = {
        "n_workers": args.n_workers,
        "b_values": args.n_batches,
        "rates": args.rates,
        "policies": args.policy,
        "n_samples": args.samples,
        "seed": args.seed,
        "output_path": args.out,
        "format": args.format,
    }
    for key, value in overrides.items():
        if value is not None:
            merged[key] = value
    spec = SweepSpec.from_dict(merged)
    rows = run_sweep(spec)
    print(f"wrote {len(rows)} rows to {spec.output_path} ({spec.format})")
    return EXIT_OK


def cmd_compare_policies(args: argparse.Namespace) -> int:
    """The fixed N = S = 6, B = 3 three-way comparison of overlapping policies."""
    _require_ci_samples(args.samples)
    system = SystemParams(6, 6, 3, args.rate)
    cfgs = {
        label: SimConfig(
            n_samples=args.samples,
            seed=derive_seed(args.seed, index),
            rate=args.rate,
            policy=PolicySpec(PolicyKind.EXPLICIT_STRUCTURE, groups=layout[1].groups),
            system=system,
        )
        for index, (label, layout) in enumerate((
            ("cyclic", cyclic_layout(6, 3)),
            ("grouped-overlap", shared_pair_layout()),
            ("replicated", replicated_nonoverlap_layout(6, 3)),
        ))
    }
    exacts = {label: cfg.plan.exact(args.rate) for label, cfg in cfgs.items()}
    if not exacts["replicated"] < exacts["grouped-overlap"] < exacts["cyclic"]:
        raise RuntimeError(
            "internal invariant violated: expected replicated < grouped-overlap < cyclic"
        )
    print(
        f"{'policy':<16} {'exact':>12} {'mc_mean':>12} {'ci95_low':>12} "
        f"{'ci95_high':>12} {'within_ci':>9}"
    )
    for label, cfg in cfgs.items():
        estimate = monte_carlo(cfg)
        within = estimate.contains(exacts[label])
        print(
            f"{label:<16} {_fmt(exacts[label]):>12} {_fmt(estimate.mean):>12} "
            f"{_fmt(estimate.ci95_low):>12} {_fmt(estimate.ci95_high):>12} "
            f"{'yes' if within else 'no':>9}"
        )
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="batchlat",
        description=(
            "Exact analysis and Monte Carlo simulation of completion time for "
            "redundant batch-to-worker assignment with exponential service times."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    cov = sub.add_parser(
        "coverage",
        help="exact and empirical batch-coverage probabilities",
        description=(
            "Tabulate the probability that N uniform with-replacement batch draws "
            "cover all B batches."
        ),
    )
    cov.add_argument(
        "-B", "--n-batches", type=_int_list, required=True, metavar="LIST",
        help="batch counts: '3', '5,10,25', or '1..10'",
    )
    cov.add_argument(
        "-N", "--n-workers", type=_int_list, required=True, metavar="LIST",
        help="worker counts, same list syntax",
    )
    cov.add_argument("--mode", choices=("exact", "empirical", "both"), default="exact")
    cov.add_argument(
        "--samples", type=_count, default=1_000_000,
        help="trials per empirical entry (default 1e6)",
    )
    cov.add_argument("--seed", type=_nonneg_int, default=DEFAULT_SEED)
    cov.add_argument("--out", metavar="PATH", help="also write the table to PATH")
    cov.add_argument("--format", choices=("csv", "json"), default="csv")
    cov.set_defaults(func=cmd_coverage)

    policy_choices = sorted(k.value for k in PolicyKind)

    ana = sub.add_parser(
        "analyze",
        help="exact expected completion time and majorization report",
        description="Exact expected completion time for one policy instance.",
    )
    ana.add_argument("--policy", required=True, choices=policy_choices)
    ana.add_argument("-N", "--n-workers", type=_positive_int)
    ana.add_argument("-B", "--n-batches", type=_positive_int)
    ana.add_argument("--rate", type=_positive_float, default=1.0)
    ana.add_argument(
        "--vector", type=_vector_arg, metavar="C1,C2,...",
        help="replica counts for --policy explicit-vector",
    )
    ana.add_argument(
        "--groups", type=_groups_arg, metavar="G1;G2;...",
        help="recovery groups for --policy explicit-structure, e.g. '0,2,4;1,3,5'",
    )
    ana.set_defaults(func=cmd_analyze)

    simp = sub.add_parser(
        "simulate",
        help="seeded Monte Carlo estimate for one configuration",
        description=(
            "Monte Carlo estimate of expected completion time, with the exact "
            "value and a CI-containment flag when an exact method applies."
        ),
    )
    simp.add_argument("--policy", required=True, choices=policy_choices)
    simp.add_argument("-N", "--n-workers", type=_positive_int)
    simp.add_argument("-B", "--n-batches", type=_positive_int)
    simp.add_argument("--rate", type=_positive_float, default=1.0)
    simp.add_argument("--samples", type=_count, default=1_000_000)
    simp.add_argument("--seed", type=_nonneg_int, default=DEFAULT_SEED)
    simp.add_argument("--vector", type=_vector_arg, metavar="C1,C2,...")
    simp.add_argument("--groups", type=_groups_arg, metavar="G1;G2;...")
    simp.set_defaults(func=cmd_simulate)

    sw = sub.add_parser(
        "sweep",
        help="rate sweep over policies and batch counts, written to CSV/JSON",
        description=(
            "Run a (policy, B, rate) grid of Monte Carlo estimates and write one "
            "row per point, with exact values where a closed form applies."
        ),
    )
    sw.add_argument("--config", metavar="PATH", help="JSON config; flags override its values")
    sw.add_argument("-N", "--n-workers", type=_positive_int)
    sw.add_argument("-B", "--n-batches", type=_int_list, metavar="LIST")
    sw.add_argument("--rates", type=_float_list, metavar="R1,R2,...")
    sw.add_argument(
        "--policy", type=_policy_list, metavar="P1,P2,...",
        help="comma-separated policy kinds (default balanced,cyclic)",
    )
    sw.add_argument("--samples", type=_count)
    sw.add_argument("--seed", type=_nonneg_int)
    sw.add_argument("--out", metavar="PATH")
    sw.add_argument("--format", choices=("csv", "json"))
    sw.set_defaults(func=cmd_sweep)

    cmp = sub.add_parser(
        "compare-fig4",
        help="compare the three six-worker overlapping-batching policies",
        description=(
            "Exact and Monte Carlo completion times for the fixed N = S = 6, "
            "B = 3 instance under cyclic, grouped-overlap, and replicated "
            "non-overlapping batching; the exact values are strictly ordered."
        ),
    )
    cmp.add_argument("--rate", type=_positive_float, default=1.0)
    cmp.add_argument("--samples", type=_count, default=1_000_000)
    cmp.add_argument("--seed", type=_nonneg_int, default=DEFAULT_SEED)
    cmp.set_defaults(func=cmd_compare_policies)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ComplexityGuardError, NoCoverageError, UncoveredBatchError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
