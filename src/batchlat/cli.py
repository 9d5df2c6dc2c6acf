"""Command-line front end for the batch-assignment latency toolkit.

Subcommands: ``coverage`` (exact and empirical batch-coverage tables),
``analyze`` (exact expected completion times and majorization report),
``simulate`` (seeded Monte Carlo estimate for one configuration), ``sweep``
(rate grids written to CSV/JSON for plotting), and ``compare-fig4`` (the
fixed six-worker comparison of the three overlapping-batching policies).

Exit codes: 0 success; 2 usage or domain errors; 3 complexity-guard,
no-coverage or out-of-memory errors; 4 I/O errors.

This module only turns text into values. Each flag's type parses its text
and hands the value to the model's check for that input (the ``_require_*``
helpers in ``batchlat.model``), so a bad value is refused at parse time, even
for a flag the command then ignores, with the model's own message and exit
code 2. The same checks run again where the values land (SystemParams,
SimConfig, SweepSpec), and there they also cover sweep config files.

Sweep configs are flat JSON objects whose keys are exactly the SweepSpec
field names; keys left out take the field defaults, and explicit
command-line flags override config values. The
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
from collections.abc import Callable, Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields
from decimal import Decimal
from functools import partial

import numpy as np

from . import analytics
from .model import (
    ComplexityGuardError,
    DomainError,
    NoCoverageError,
    _require_counts,
    _require_groups,
    _require_list,
    _require_nonneg_int,
    _require_positive_int,
    _require_rate,
    _require_sample_count,
    _shown,
)
from .policies import (
    Plan,
    PolicyKind,
    PolicySpec,
    balanced_assignment,
    resolve,
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
        rates = _require_list(self.rates, "rates", _require_rate)
        object.__setattr__(self, "rates", rates)
        b_values = _require_list(self.b_values, "b_values", _require_positive_int)
        object.__setattr__(self, "b_values", b_values)
        object.__setattr__(self, "n_workers", _require_positive_int(self.n_workers, "n_workers"))
        kinds = []
        for name in _require_list(self.policies, "policies"):
            kind = PolicyKind(name)
            if kind.carries_payload:
                raise DomainError(
                    f"policy kind {kind.value!r} carries a payload and cannot be swept"
                )
            kinds.append(kind)
        object.__setattr__(self, "policies", tuple(k.value for k in kinds))
        object.__setattr__(self, "n_samples", _require_sample_count(self.n_samples, "n_samples"))
        object.__setattr__(self, "seed", _require_nonneg_int(self.seed, "seed"))
        if not isinstance(self.output_path, str) or not self.output_path:
            raise DomainError(
                f"output_path must be a non-empty string, got {_shown(self.output_path)}"
            )
        if self.format not in ("csv", "json"):
            raise DomainError(f"format must be 'csv' or 'json', got {_shown(self.format)}")
        # Every (policy, B) pair must satisfy its divisibility requirements.
        for kind in kinds:
            policy = PolicySpec(kind)
            for b in b_values:
                resolve(policy, policy.system(self.n_workers, b))

    @classmethod
    def from_dict(cls, data: dict, **overrides: object) -> "SweepSpec":
        """The spec a config object describes, with ``overrides`` replacing its values;
        keys it leaves out take the field defaults."""
        if not isinstance(data, dict):
            raise DomainError(f"sweep config must be an object, got {type(data).__name__}")
        known = {f.name for f in fields(cls)}
        # a string key as written; any other through _shown(), since str() raises
        # on an int past the digit limit
        unknown = sorted(k if isinstance(k, str) else _shown(k) for k in data if k not in known)
        if unknown:
            raise DomainError(f"unknown sweep config keys: {', '.join(unknown)}")
        return cls(**{**data, **overrides})


def _thread_count() -> int:
    raw = os.environ.get(THREADS_ENV_VAR)
    if raw is None:
        return 1
    value = _require_positive_int(_parsed(raw, int), THREADS_ENV_VAR)
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
        policy = PolicySpec(PolicyKind(policy_name))
        cfg = SimConfig(
            n_samples=spec.n_samples,
            seed=derive_seed(spec.seed, index),
            rate=rate,
            policy=policy,
            system=policy.system(spec.n_workers, b),
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

    with ThreadPoolExecutor(max_workers=_thread_count()) as pool:
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


def _parsed(text: str, parse: Callable[[str], object]) -> object:
    """``parse(text)``, or the text itself when it does not parse: the model's
    check then refuses it by type, under the input's own name."""
    try:
        return parse(text)
    except (ValueError, ArithmeticError):
        return text


def _whole(text: str) -> int:
    """The integer that ``text`` spells exactly, scientific notation included (1e6).

    Decimal tells 2^53 + 1 and 9007199254740992.5 from 2^53, where a float
    would round them together. Like int() on text, it refuses more than 4300
    digits, so '1e999999999' is refused at once instead of being built.
    """
    value = Decimal(text)
    if value.is_finite() and value.adjusted() < 4300 and value == value.to_integral_value():
        return int(value)
    raise ValueError(text)


# A list whose 'lo..hi' entries would expand it past this many entries is
# refused before the range is built.
_MAX_RANGE = 10**6


def _split(text: str, parse: Callable[[str], object] = str, ranges: bool = False) -> tuple:
    """The comma-separated entries of ``text``, blanks skipped, each read by
    ``parse``; with ``ranges``, an entry 'lo..hi' stands for lo, lo + 1, ..., hi,
    up to ``_MAX_RANGE`` entries in all."""
    out: list[object] = []
    for part in text.split(","):
        part = part.strip()
        bounds = [_parsed(t, int) for t in part.split("..")] if ranges else []
        if len(bounds) == 2 and all(isinstance(b, int) for b in bounds):
            lo, hi = bounds
            if lo > hi:
                raise argparse.ArgumentTypeError(f"empty range {part!r}")
            if len(out) + hi - lo + 1 > _MAX_RANGE:
                raise argparse.ArgumentTypeError(
                    f"range {part!r} has {hi - lo + 1} entries; "
                    f"a list may expand to at most {_MAX_RANGE}"
                )
            out.extend(range(lo, hi + 1))
        elif part:
            out.append(_parsed(part, parse))
    return tuple(out)


def _groups(text: str) -> tuple[tuple, ...]:
    """Recovery groups: semicolon-separated worker lists, e.g. '0,2,4;1,3,5'."""
    return tuple(_split(part, int) for part in text.split(";"))


def _arg(
    parse: Callable[[str], object], require: Callable[..., object], *args: object
) -> Callable[[str], object]:
    """An argparse type: ``parse`` reads the text and the model's ``require``
    check, given ``args``, judges the value. A refusal reaches the user as the
    model's own message rather than argparse's "invalid <type> value"."""

    def convert(text: str) -> object:
        try:
            return require(_parsed(text, parse), *args)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return convert


def _policy_from_args(args: argparse.Namespace) -> PolicySpec:
    return PolicySpec(
        PolicyKind(args.policy),
        vector=getattr(args, "vector", None),
        groups=getattr(args, "groups", None),
    )


def _batches_known(spec: PolicySpec, args: argparse.Namespace) -> bool:
    """Whether B is the user's or the policy's, not the placeholder that
    ``PolicySpec.system`` gives a structure without -B; reports show B only then."""
    return spec.groups is None or args.n_batches is not None


# ---------------------------------------------------------------------------
# subcommands


def cmd_coverage(args: argparse.Namespace) -> int:
    want_exact = args.mode in ("exact", "both")
    want_empirical = args.mode in ("empirical", "both")
    rows = []
    grid = itertools.product(sorted(set(args.n_workers)), sorted(set(args.n_batches)))
    for index, (n, b) in enumerate(grid):
        row = {"B": b, "N": n, "exact": None, "empirical": None}
        if want_exact:
            row["exact"] = analytics.coverage_probability(b, n).float_value
        if want_empirical:
            seed = derive_seed(args.seed, index)
            row["empirical"] = coverage_empirical(b, n, args.samples, seed)
        rows.append(row)
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
    system = spec.system(args.n_workers, args.n_batches)
    n, b, rate = system.n_workers, system.n_batches, args.rate
    plan = resolve(spec, system)
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
    show_bound = _batches_known(spec, args)
    if show_bound:
        lines.append(("n_batches", str(b)))
    lines.append(("rate", _fmt(rate)))
    lines.append(("expected_time", _fmt(exact)))
    if show_bound and b <= n:
        # Reference value of the balanced assignment on the same shape; it
        # is attainable only when B divides N. Past N, which only a
        # structure's B reaches, no assignment covers every batch.
        bound = float(analytics.harmonic(b) * b / n) / rate
        lines.append(("balanced_bound", _fmt(bound)))
        lines.append(("ratio_to_bound", _fmt(exact / bound)))
    if plan.counts is not None and n % b == 0:
        counts = plan.counts
        balanced = balanced_assignment(n, b)
        # B positive counts summing to N (PolicySpec refuses a zero) are
        # majorized by the balanced ones exactly when they are all equal.
        minimal = "yes" if analytics.majorizes(balanced, counts) else "no"
        lines.append(("is_balanced", minimal))
        lines.append(
            ("majorizes_balanced", "yes" if analytics.majorizes(counts, balanced) else "no")
        )
        lines.append(("majorized_by_balanced", minimal))
    _print_report(lines)
    return EXIT_OK


def cmd_simulate(args: argparse.Namespace) -> int:
    spec = _policy_from_args(args)
    system = spec.system(args.n_workers, args.n_batches)
    _require_ci_samples(args.samples)
    cfg = SimConfig(
        n_samples=args.samples, seed=args.seed, rate=args.rate, policy=spec, system=system
    )
    estimate = monte_carlo(cfg)
    exact = _exact_or_none(cfg.plan, args.rate)
    lines = [("policy", spec.kind.value), ("n_workers", str(system.n_workers))]
    if _batches_known(spec, args):
        lines.append(("n_batches", str(system.n_batches)))
    lines += [
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
    config = {}
    if args.config is not None:
        with open(args.config) as fh:
            try:
                config = json.load(fh)
            except ValueError as exc:  # JSONDecodeError, or an integer of over 4300 digits
                raise DomainError(f"invalid JSON in {args.config}: {exc}") from None
    flags = {
        "n_workers": args.n_workers,
        "b_values": args.n_batches,
        "rates": args.rates,
        "policies": args.policy,
        "n_samples": args.samples,
        "seed": args.seed,
        "output_path": args.out,
        "format": args.format,
    }
    spec = SweepSpec.from_dict(config, **{k: v for k, v in flags.items() if v is not None})
    rows = run_sweep(spec)
    print(f"wrote {len(rows)} rows to {spec.output_path} ({spec.format})")
    return EXIT_OK


def cmd_compare_policies(args: argparse.Namespace) -> int:
    """The fixed N = S = 6, B = 3 three-way comparison of overlapping policies."""
    _require_ci_samples(args.samples)
    cfgs = {
        label: SimConfig(
            n_samples=args.samples,
            seed=derive_seed(args.seed, index),
            rate=args.rate,
            policy=policy,
            system=policy.system(6, 3),
        )
        for index, (label, policy) in enumerate((
            ("cyclic", PolicySpec(PolicyKind.CYCLIC)),
            ("grouped-overlap", PolicySpec(PolicyKind.GROUPED_OVERLAP)),
            # the max over batches of replica minima is the min over the
            # replicated layout's groups of group maxima, trial by trial
            ("replicated", PolicySpec(PolicyKind.BALANCED)),
        ))
    }
    exacts = {label: cfg.plan.exact(args.rate) for label, cfg in cfgs.items()}
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
    samples = _arg(_whole, _require_sample_count, "n_samples")
    seed = _arg(int, _require_nonneg_int, "seed")
    rate = _arg(float, _require_rate, "rate")
    n_workers = _arg(int, _require_positive_int, "n_workers")
    count_list = partial(_split, parse=int, ranges=True)

    cov = sub.add_parser(
        "coverage",
        help="exact and empirical batch-coverage probabilities",
        description=(
            "Tabulate the probability that N uniform with-replacement batch draws "
            "cover all B batches."
        ),
    )
    cov.add_argument(
        "-B", "--n-batches", required=True, metavar="LIST",
        type=_arg(count_list, _require_list, "n_batches", _require_positive_int),
        help="batch counts: '3', '5,10,25', or '1..10'",
    )
    cov.add_argument(
        "-N", "--n-workers", required=True, metavar="LIST",
        type=_arg(count_list, _require_list, "n_workers", _require_positive_int),
        help="worker counts, same list syntax",
    )
    cov.add_argument("--mode", choices=("exact", "empirical", "both"), default="exact")
    cov.add_argument(
        "--samples", type=samples, default=1_000_000,
        help="trials per empirical entry (default 1e6)",
    )
    cov.add_argument("--seed", type=seed, default=DEFAULT_SEED)
    cov.add_argument("--out", metavar="PATH", help="also write the table to PATH")
    cov.add_argument("--format", choices=("csv", "json"), default="csv")
    cov.set_defaults(func=cmd_coverage)

    # One policy instance: the flags that analyze and simulate share.
    instance = argparse.ArgumentParser(add_help=False)
    instance.add_argument("--policy", required=True, choices=sorted(k.value for k in PolicyKind))
    instance.add_argument("-N", "--n-workers", type=n_workers)
    instance.add_argument("-B", "--n-batches", type=_arg(int, _require_positive_int, "n_batches"))
    instance.add_argument("--rate", type=rate, default=1.0)
    instance.add_argument(
        "--vector", type=_arg(partial(_split, parse=int), _require_counts), metavar="C1,C2,...",
        help="replica counts for --policy explicit-vector",
    )
    instance.add_argument(
        "--groups", type=_arg(_groups, _require_groups), metavar="G1;G2;...",
        help="recovery groups for --policy explicit-structure, e.g. '0,2,4;1,3,5'",
    )

    ana = sub.add_parser(
        "analyze",
        parents=[instance],
        help="exact expected completion time and majorization report",
        description="Exact expected completion time for one policy instance.",
    )
    ana.set_defaults(func=cmd_analyze)

    simp = sub.add_parser(
        "simulate",
        parents=[instance],
        help="seeded Monte Carlo estimate for one configuration",
        description=(
            "Monte Carlo estimate of expected completion time, with the exact "
            "value and a CI-containment flag when an exact method applies."
        ),
    )
    simp.add_argument("--samples", type=samples, default=1_000_000)
    simp.add_argument("--seed", type=seed, default=DEFAULT_SEED)
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
    sw.add_argument("-N", "--n-workers", type=n_workers)
    sw.add_argument(
        "-B", "--n-batches", metavar="LIST",
        type=_arg(count_list, _require_list, "b_values", _require_positive_int),
    )
    sw.add_argument(
        "--rates", metavar="R1,R2,...",
        type=_arg(partial(_split, parse=float), _require_list, "rates", _require_rate),
    )
    sw.add_argument(
        "--policy", type=_arg(_split, _require_list, "policies"), metavar="P1,P2,...",
        help="comma-separated policy kinds (default balanced,cyclic)",
    )
    sw.add_argument("--samples", type=samples)
    sw.add_argument("--seed", type=seed)
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
    cmp.add_argument("--rate", type=rate, default=1.0)
    cmp.add_argument("--samples", type=samples, default=1_000_000)
    cmp.add_argument("--seed", type=seed, default=DEFAULT_SEED)
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
    except (ComplexityGuardError, NoCoverageError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
