"""Command-line surface: sweep configs, file formats, determinism, exit codes.

Everything drives ``main(argv)`` directly, so exit codes are return values
and output is captured by capsys.
"""

import csv
import itertools
import json
import math
import os
import re
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import pytest

from batchlat import analytics, cli, policies
from batchlat.analytics import coverage_probability, expected_time_balanced, harmonic
from batchlat.cli import (
    DEFAULT_RATES,
    DEFAULT_SEED,
    EXIT_GUARD,
    EXIT_IO,
    EXIT_OK,
    EXIT_USAGE,
    SweepSpec,
    main,
    run_sweep,
)
from batchlat.model import DomainError

SWEEP_HEADER = "policy,N,B,rate,mean,ci_low,ci_high,exact,n_samples,seed"

# 11 batches over 909091 workers: B * N is one above the exact routes' limit
OVER_LIMIT_VECTOR = ",".join(["82645"] * 10 + ["82641"])


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def _field(stdout: str, key: str) -> str:
    match = re.search(rf"^{re.escape(key)}:\s+(.*)$", stdout, re.MULTILINE)
    assert match, f"missing field {key!r} in:\n{stdout}"
    return match.group(1).strip()


class TestSweepSpec:
    def test_defaults(self):
        spec = SweepSpec()
        assert spec.rates == DEFAULT_RATES
        assert len(spec.rates) == 20
        assert spec.rates[0] == pytest.approx(0.1)
        assert spec.rates[-1] == pytest.approx(10.0)
        assert spec.b_values == (5, 10, 25)
        assert spec.n_workers == 50
        assert spec.policies == ("balanced", "cyclic")
        assert spec.n_samples == 100_000
        assert spec.seed == DEFAULT_SEED
        assert spec.output_path == "sweep.csv"
        assert spec.format == "csv"

    def test_round_trip(self):
        spec = SweepSpec(rates=(0.5, 2.0), b_values=(5,), policies=("balanced",))
        assert SweepSpec.from_dict(asdict(spec)) == spec

    def test_json_round_trip(self):
        spec = SweepSpec()
        assert SweepSpec.from_dict(json.loads(json.dumps(asdict(spec)))) == spec

    def test_unknown_key_rejected(self):
        with pytest.raises(DomainError):
            SweepSpec.from_dict({"rate_list": [1.0]})

    def test_payload_policies_rejected(self):
        with pytest.raises(DomainError):
            SweepSpec(policies=("explicit-vector",))
        with pytest.raises(DomainError):
            SweepSpec(policies=("explicit-structure",))

    def test_shape_validated_per_policy(self):
        # 7 does not divide 50
        with pytest.raises(DomainError):
            SweepSpec(b_values=(7,))
        # grouped-overlap only exists at N=6, B=3
        with pytest.raises(DomainError):
            SweepSpec(policies=("grouped-overlap",))
        SweepSpec(n_workers=6, b_values=(3,), policies=("grouped-overlap",))

    def test_scalar_where_list_expected(self):
        with pytest.raises(DomainError):
            SweepSpec.from_dict({"rates": "1,2"})

    def test_bad_format(self):
        with pytest.raises(DomainError):
            SweepSpec(format="yaml")

    def test_output_path_must_be_a_string(self):
        with pytest.raises(DomainError, match="^output_path must be a non-empty string, got 5$"):
            SweepSpec(output_path=5)

    def test_config_must_be_an_object(self):
        with pytest.raises(DomainError, match="^sweep config must be an object, got list$"):
            SweepSpec.from_dict([{"seed": 1}])

    def test_empty_rates(self):
        with pytest.raises(DomainError):
            SweepSpec(rates=())


class TestSweepCommand:
    def _args(self, out, extra=()):
        return [
            "sweep", "--rates", "0.5,1", "-B", "5", "--policy", "balanced",
            "--samples", "2000", "--seed", "7", "--out", str(out), *extra,
        ]

    def test_csv_output(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        assert main(self._args(out)) == EXIT_OK
        assert "wrote 2 rows" in capsys.readouterr().out
        raw = out.read_bytes()
        assert raw.endswith(b"\n") and not raw.endswith(b"\n\n")
        rows = _read_csv(out)
        assert rows[0] == SWEEP_HEADER.split(",")
        assert len(rows) == 3
        for row in rows[1:]:
            assert len(row) == 10
            assert row[0] == "balanced"
            assert (row[1], row[2]) == ("50", "5")
        # ordered by rate
        assert [float(r[3]) for r in rows[1:]] == [0.5, 1.0]
        # the exact column carries the closed form and the estimate sits near it
        for row in rows[1:]:
            rate = float(row[3])
            exact = float(row[7])
            assert exact == pytest.approx(expected_time_balanced(50, 5, rate), rel=1e-8)
            half = float(row[6]) - float(row[4])
            assert abs(float(row[4]) - exact) < 4 * half

    def test_rows_sorted_and_seeded_per_point(self, tmp_path):
        out = tmp_path / "s.csv"
        args = [
            "sweep", "--rates", "2,0.5", "-B", "10,5", "--policy", "cyclic,balanced",
            "--samples", "1000", "--seed", "3", "--out", str(out),
        ]
        assert main(args) == EXIT_OK
        rows = _read_csv(out)[1:]
        keys = [(r[0], int(r[2]), float(r[3])) for r in rows]
        assert keys == sorted(keys)
        assert len(set(r[9] for r in rows)) == len(rows)

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(self._args(a)) == EXIT_OK
        assert main(self._args(b)) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_json_mirrors_csv(self, tmp_path):
        c, j = tmp_path / "s.csv", tmp_path / "s.json"
        assert main(self._args(c)) == EXIT_OK
        assert main(self._args(j, extra=("--format", "json"))) == EXIT_OK
        payload = json.loads(j.read_text())
        rows = _read_csv(c)[1:]
        assert len(payload) == len(rows)
        for entry, row in zip(payload, rows):
            assert list(entry) == SWEEP_HEADER.split(",")
            assert entry["policy"] == row[0]
            assert entry["mean"] == float(row[4])
            assert entry["seed"] == int(row[9])
        assert j.read_text().endswith("\n")

    def test_thread_count_does_not_change_bytes(self, tmp_path, monkeypatch):
        a = tmp_path / "a.csv"
        assert main(self._args(a)) == EXIT_OK
        monkeypatch.setenv("BATCHLAT_THREADS", "3")
        b = tmp_path / "b.csv"
        assert main(self._args(b)) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_bad_thread_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("BATCHLAT_THREADS", "zero")
        assert main(self._args(tmp_path / "x.csv")) == EXIT_USAGE

    def test_thread_env_is_capped(self, monkeypatch):
        # reads the variable only; no pool is started at these sizes
        monkeypatch.setenv("BATCHLAT_THREADS", "256")
        assert cli._thread_count() == 256
        for raw in ("257", "1000000"):
            monkeypatch.setenv("BATCHLAT_THREADS", raw)
            with pytest.raises(DomainError, match=f"BATCHLAT_THREADS must be <= 256, got {raw}"):
                cli._thread_count()

    def test_config_file_with_flag_override(self, tmp_path):
        out = tmp_path / "cfg.csv"
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps({
            "rates": [1.0, 2.0],
            "b_values": [5],
            "policies": ["balanced"],
            "n_samples": 2000,
            "seed": 7,
            "output_path": str(out),
        }))
        assert main(["sweep", "--config", str(cfg), "--samples", "3000"]) == EXIT_OK
        rows = _read_csv(out)[1:]
        assert len(rows) == 2
        assert all(r[8] == "3000" for r in rows)

    def test_config_unknown_key(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"rate_grid": [1.0]}))
        assert main(["sweep", "--config", str(cfg)]) == EXIT_USAGE

    def test_config_sample_count_above_2_53(self, tmp_path, capsys):
        path = tmp_path / "big.json"
        path.write_text('{"n_samples": 100000000000000000000}')
        argv = ["sweep", "--config", str(path), "--out", str(tmp_path / "x.csv")]
        assert main(argv) == EXIT_USAGE
        assert capsys.readouterr().err == (
            "error: n_samples must be at most 2^53, got 100000000000000000000\n"
        )

    def test_config_rate_past_the_float_range(self, tmp_path, capsys):
        # a JSON integer too large for a float is refused, not overflowed
        path = tmp_path / "big.json"
        path.write_text('{"rates": [1' + "0" * 400 + "]}")
        argv = ["sweep", "--config", str(path), "--out", str(tmp_path / "x.csv")]
        assert main(argv) == EXIT_USAGE
        assert capsys.readouterr().err == f"error: rates must lie in [1e-100, 1e100], got {10**400}\n"

    def test_config_invalid_json(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text("{not json")
        assert main(["sweep", "--config", str(cfg)]) == EXIT_USAGE

    def test_random_cc_has_no_exact_column(self, tmp_path):
        out = tmp_path / "rc.csv"
        args = [
            "sweep", "--rates", "1", "-B", "5", "--policy", "random-cc",
            "--samples", "2000", "--seed", "7", "--out", str(out),
        ]
        assert main(args) == EXIT_OK
        rows = _read_csv(out)[1:]
        assert rows[0][7] == ""

    def test_row_reproducible_via_simulate(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        assert main(self._args(out)) == EXIT_OK
        capsys.readouterr()
        row = _read_csv(out)[2]  # rate 1.0
        assert float(row[3]) == 1.0
        code = main([
            "simulate", "--policy", "balanced", "-N", "50", "-B", "5",
            "--rate", "1", "--samples", "2000", "--seed", row[9],
        ])
        assert code == EXIT_OK
        stdout = capsys.readouterr().out
        assert _field(stdout, "mean") == row[4]
        assert _field(stdout, "seed") == row[9]

    def test_run_sweep_returns_rows(self, tmp_path):
        spec = SweepSpec(
            rates=(1.0,), b_values=(5,), policies=("balanced",),
            n_samples=1000, seed=1, output_path=str(tmp_path / "r.csv"),
        )
        rows = run_sweep(spec)
        assert len(rows) == 1
        assert rows[0]["policy"] == "balanced"
        assert rows[0]["exact"] == pytest.approx(expected_time_balanced(50, 5))


class TestSimulateCommand:
    def test_reports_exact_and_containment(self, capsys):
        code = main([
            "simulate", "--policy", "balanced", "-N", "6", "-B", "3",
            "--samples", "20000", "--seed", "0",
        ])
        assert code == EXIT_OK
        stdout = capsys.readouterr().out
        assert _field(stdout, "policy") == "balanced"
        assert _field(stdout, "n_workers") == "6"
        assert _field(stdout, "coverage_rate") == "1"
        assert float(_field(stdout, "exact")) == pytest.approx(11 / 12, rel=1e-8)
        lo, hi = json.loads(_field(stdout, "ci95"))
        mean = float(_field(stdout, "mean"))
        assert lo < mean < hi
        assert _field(stdout, "within_ci") in ("yes", "no")

    def test_vector_inferred_shape(self, capsys):
        code = main([
            "simulate", "--policy", "explicit-vector", "--vector", "3,2,1",
            "--samples", "1000", "--seed", "0",
        ])
        assert code == EXIT_OK
        stdout = capsys.readouterr().out
        assert _field(stdout, "n_workers") == "6"
        assert _field(stdout, "n_batches") == "3"
        assert float(_field(stdout, "exact")) == pytest.approx(73 / 60, rel=1e-8)

    def test_wide_vector_reports_exact(self, capsys):
        vector = ",".join(["1"] * 26)
        assert main([
            "simulate", "--policy", "explicit-vector", "--vector", vector,
            "--samples", "1000", "--seed", "0",
        ]) == EXIT_OK
        assert float(_field(capsys.readouterr().out, "exact")) == pytest.approx(
            float(harmonic(26)), rel=1e-8
        )

    def test_random_cc_reports_coverage(self, capsys):
        code = main([
            "simulate", "--policy", "random-cc", "-N", "6", "-B", "3",
            "--samples", "20000", "--seed", "0",
        ])
        assert code == EXIT_OK
        stdout = capsys.readouterr().out
        coverage = float(_field(stdout, "coverage_rate"))
        p = float(coverage_probability(3, 6))
        assert abs(coverage - p) < 4 * math.sqrt(p * (1 - p) / 20000)
        assert "exact:" not in stdout

    def test_guarded_exact_is_left_out(self, capsys):
        assert main([
            "simulate", "--policy", "explicit-structure", "-N", "65", "--groups", "0,1;2,3",
            "--samples", "1000", "--seed", "0",
        ]) == EXIT_OK
        stdout = capsys.readouterr().out
        assert _field(stdout, "n_workers") == "65"
        assert "exact:" not in stdout and "within_ci:" not in stdout
        # the groups imply no B, so the B = 1 placeholder is not shown
        assert "n_batches:" not in stdout

    def test_too_few_samples(self):
        assert main([
            "simulate", "--policy", "balanced", "-N", "6", "-B", "3", "--samples", "999",
        ]) == EXIT_USAGE

    def test_validates_the_system_once(self, monkeypatch):
        calls = []
        resolve = policies.resolve

        def counting(*args):
            calls.append(args)
            return resolve(*args)

        bound = [
            module
            for name, module in list(sys.modules.items())
            if (name == "batchlat" or name.startswith("batchlat."))
            and getattr(module, "resolve", None) is resolve
        ]
        assert policies in bound and len(bound) > 1
        for module in bound:
            monkeypatch.setattr(module, "resolve", counting)
        assert main([
            "simulate", "--policy", "balanced", "-N", "6", "-B", "3", "--samples", "1000",
        ]) == EXIT_OK
        assert len(calls) == 1


class TestCoverageCommand:
    def test_exact_table(self, capsys):
        assert main(["coverage", "-B", "3", "-N", "6"]) == EXIT_OK
        stdout = capsys.readouterr().out
        lines = stdout.strip().splitlines()
        assert lines[0].split() == ["B", "N", "exact"]
        assert lines[1].split() == ["3", "6", "0.740740741"]

    def test_equal_batches_and_workers(self, capsys):
        assert main(["coverage", "-B", "4", "-N", "4"]) == EXIT_OK
        value = float(capsys.readouterr().out.strip().splitlines()[1].split()[2])
        assert value == pytest.approx(math.factorial(4) / 4**4)

    def test_range_syntax_and_sorting(self, capsys):
        assert main(["coverage", "-B", "2..3", "-N", "6,4"]) == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()[1:]
        keys = [(int(l.split()[1]), int(l.split()[0])) for l in lines]
        assert keys == [(4, 2), (4, 3), (6, 2), (6, 3)]

    def test_empirical_deterministic(self, capsys):
        args = ["coverage", "-B", "3", "-N", "6", "--mode", "both", "--samples", "20000"]
        assert main(args) == EXIT_OK
        first = capsys.readouterr().out
        assert main(args) == EXIT_OK
        assert capsys.readouterr().out == first
        row = first.strip().splitlines()[1].split()
        assert abs(float(row[2]) - float(row[3])) < 0.02

    def test_guard_error(self, capsys):
        assert main(["coverage", "-B", "11", "-N", "909091"]) == EXIT_GUARD
        assert "B*N" in capsys.readouterr().err
        for b, n in (("3", "3333333"), ("10", "1000000")):
            assert main(["coverage", "-B", b, "-N", n, "--mode", "exact"]) == EXIT_GUARD
            assert "N*log2(B) <= 262144" in capsys.readouterr().err

    def test_out_file(self, tmp_path, capsys):
        out = tmp_path / "cov.csv"
        assert main(["coverage", "-B", "2,3", "-N", "6", "--out", str(out)]) == EXIT_OK
        rows = _read_csv(out)
        assert rows[0] == ["B", "N", "exact"]
        assert len(rows) == 3


class TestAnalyzeCommand:
    def test_balanced(self, capsys):
        assert main(["analyze", "--policy", "balanced", "-N", "6", "-B", "3"]) == EXIT_OK
        stdout = capsys.readouterr().out
        assert float(_field(stdout, "expected_time")) == pytest.approx(11 / 12, rel=1e-8)
        assert _field(stdout, "is_balanced") == "yes"
        assert _field(stdout, "majorized_by_balanced") == "yes"

    def test_vector_majorization_report(self, capsys):
        assert main([
            "analyze", "--policy", "explicit-vector", "--vector", "3,2,1",
        ]) == EXIT_OK
        stdout = capsys.readouterr().out
        assert float(_field(stdout, "expected_time")) == pytest.approx(73 / 60, rel=1e-8)
        assert _field(stdout, "is_balanced") == "no"
        assert _field(stdout, "majorizes_balanced") == "yes"
        assert float(_field(stdout, "ratio_to_bound")) == pytest.approx(
            (73 / 60) / (11 / 12), rel=1e-6
        )

    def test_cyclic(self, capsys):
        assert main(["analyze", "--policy", "cyclic", "-N", "50", "-B", "25"]) == EXIT_OK
        stdout = capsys.readouterr().out
        assert float(_field(stdout, "expected_time")) == pytest.approx(
            3.1327110171775887, rel=1e-8
        )

    def test_structure_groups_flag(self, capsys):
        assert main([
            "analyze", "--policy", "explicit-structure", "--groups", "0,2,4;1,3,5",
            "-N", "6",
        ]) == EXIT_OK
        stdout = capsys.readouterr().out
        assert float(_field(stdout, "expected_time")) == pytest.approx(73 / 60, rel=1e-8)

    def test_random_cc_is_rejected(self, capsys):
        assert main(["analyze", "--policy", "random-cc", "-N", "6", "-B", "3"]) == EXIT_USAGE
        assert "simulate" in capsys.readouterr().err

    def test_validates_shape_like_simulate(self, capsys):
        # grouped-overlap exists only at N=6, B=3; analyze must refuse other shapes.
        assert main(["analyze", "--policy", "grouped-overlap", "-N", "8", "-B", "4"]) == EXIT_USAGE
        stderr = capsys.readouterr().err
        assert "fixed six-worker, three-batch instance" in stderr

    def test_builds_no_groups(self, monkeypatch):
        # The cyclic closed form needs no recovery groups, and building them
        # is costly at large N, so analyze must not call cyclic_layout.
        def refuse(*args):
            raise AssertionError("analyze built the cyclic groups")

        monkeypatch.setattr(policies, "cyclic_layout", refuse)
        assert main(["analyze", "--policy", "cyclic", "-N", "60", "-B", "30"]) == EXIT_OK


class TestComparePolicies:
    def test_table_and_ordering(self, capsys):
        assert main(["compare-fig4", "--samples", "20000", "--seed", "0"]) == EXIT_OK
        stdout = capsys.readouterr().out
        lines = stdout.strip().splitlines()
        assert lines[0].split() == [
            "policy", "exact", "mc_mean", "ci95_low", "ci95_high", "within_ci",
        ]
        table = {l.split()[0]: l.split() for l in lines[1:]}
        assert set(table) == {"cyclic", "grouped-overlap", "replicated"}
        assert float(table["replicated"][1]) == pytest.approx(11 / 12, rel=1e-8)
        assert float(table["grouped-overlap"][1]) == pytest.approx(21 / 20, rel=1e-8)
        assert float(table["cyclic"][1]) == pytest.approx(73 / 60, rel=1e-8)

    def test_broken_order_is_an_internal_error(self, monkeypatch):
        # the exact values are checked before any sampling: a cyclic time
        # below the replicated one breaks the order the comparison rests on
        monkeypatch.setattr(analytics, "expected_time_cyclic", lambda n, b, rate: 0.0)
        with pytest.raises(RuntimeError, match="^internal invariant violated"):
            main(["compare-fig4", "--samples", "1000"])

    def test_rate_halves_each_entry(self, capsys):
        assert main(["compare-fig4", "--samples", "1000", "--seed", "0"]) == EXIT_OK
        base = capsys.readouterr().out.strip().splitlines()[1:]
        assert main(["compare-fig4", "--samples", "1000", "--seed", "0", "--rate", "2"]) == EXIT_OK
        halved = capsys.readouterr().out.strip().splitlines()[1:]
        for b_line, h_line in zip(base, halved):
            assert float(h_line.split()[1]) == pytest.approx(
                float(b_line.split()[1]) / 2, rel=1e-8
            )


class TestExitCodes:
    def test_usage_error_from_argparse(self):
        with pytest.raises(SystemExit) as err:
            main(["simulate"])  # missing required --policy
        assert err.value.code == 2

    def test_domain_error(self, capsys):
        assert main([
            "simulate", "--policy", "balanced", "-N", "7", "-B", "3", "--samples", "1000",
        ]) == EXIT_USAGE
        assert "error:" in capsys.readouterr().err

    def test_guard_error(self, capsys):
        assert main([
            "analyze", "--policy", "explicit-vector", "--vector", OVER_LIMIT_VECTOR,
        ]) == EXIT_GUARD
        assert "error:" in capsys.readouterr().err

    def test_structure_guard_error(self, capsys):
        for n, groups in ((65, "0,1;2,64"), (25, ";".join(f"{i},{i + 1}" for i in range(16)))):
            assert main([
                "analyze", "--policy", "explicit-structure", "-N", str(n), "--groups", groups,
            ]) == EXIT_GUARD
            assert "N <= 24 guard (N <= 64 with fewer than 16 distinct groups)" in (
                capsys.readouterr().err
            )

    def test_structure_past_24_with_few_groups(self, capsys):
        # two disjoint pairs among 25 workers: the min of two pair maxima, 11/12
        assert main([
            "analyze", "--policy", "explicit-structure", "-N", "25", "--groups", "0,1;2,3",
        ]) == EXIT_OK
        assert _field(capsys.readouterr().out, "expected_time") == cli._fmt(11 / 12)

    @pytest.mark.parametrize("argv, guard", [
        (["--policy", "cyclic", "-N", "100000", "-B", "1"], "N <= 100000 and G <= 10000"),
        (["--policy", "balanced", "-N", "200000", "-B", "200000"], "n <= 100000"),
    ], ids=["cyclic", "balanced"])
    def test_closed_form_guard_error(self, argv, guard, capsys):
        assert main(["analyze", *argv]) == EXIT_GUARD
        assert guard in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["--policy", "explicit-vector", "--vector", "3,2,1", "-N", "7"],
         "vector assigns 6 workers but the system has 7"),
        (["--policy", "explicit-vector", "--vector", "3,2,1", "-B", "2"],
         "vector has 3 entries but the system has 2 batches"),
        (["--policy", "explicit-structure", "--groups", "0,1"],
         "n_workers is required for explicit-structure"),
        (["--policy", "balanced", "-N", "6"],
         "n_workers and n_batches are required for balanced"),
    ], ids=["vector-total", "vector-length", "structure-without-n", "balanced-without-b"])
    def test_shape_refused(self, argv, message, capsys):
        assert main(["analyze", *argv]) == EXIT_USAGE
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_structure_with_many_groups(self, capsys):
        # with every 3-worker group of 24, the job ends at the third finish
        groups = ";".join(",".join(map(str, c)) for c in itertools.combinations(range(24), 3))
        assert main([
            "analyze", "--policy", "explicit-structure", "-N", "24", "--groups", groups,
        ]) == EXIT_OK
        stdout = capsys.readouterr().out
        assert _field(stdout, "expected_time") == cli._fmt(1 / 24 + 1 / 23 + 1 / 22)

    def test_no_coverage_error(self, capsys):
        # two random-cc draws can never cover five batches
        assert main([
            "simulate", "--policy", "random-cc", "-N", "2", "-B", "5", "--samples", "1000",
        ]) == EXIT_GUARD
        assert capsys.readouterr().err == "error: none of the 1000 trials covered all 5 batches\n"

    def test_uncoverable_vector_same_code_in_analyze(self, capsys):
        # analyze and simulate refuse a zero-count vector at parse time, alike
        for command in ("analyze", "simulate"):
            with pytest.raises(SystemExit) as err:
                main([command, "--policy", "explicit-vector", "--vector", "3,0,3"])
            assert err.value.code == EXIT_USAGE
            last = capsys.readouterr().err.splitlines()[-1]
            assert last == (
                f"batchlat {command}: error: argument --vector: count must be positive, got 0"
            )

    def test_out_of_memory(self, monkeypatch, capsys):
        message = "Unable to allocate 7.28 TiB for an array with shape (1000000000000,)"

        def no_memory(cfg):
            raise MemoryError(message)

        monkeypatch.setattr(cli, "monte_carlo", no_memory)
        assert main([
            "simulate", "--policy", "balanced", "-N", "6", "-B", "3", "--samples", "1e12",
        ]) == EXIT_GUARD
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_sample_count_above_2_53_refused(self, monkeypatch, capsys):
        def stop(cfg):
            raise MemoryError(f"n_samples={cfg.n_samples}")

        monkeypatch.setattr(cli, "monte_carlo", stop)
        argv = ["simulate", "--policy", "balanced", "-N", "6", "-B", "3", "--samples"]
        for text in ("1e20", "9007199254740993", "9007199254740992.5"):
            with pytest.raises(SystemExit) as err:
                main([*argv, text])
            assert err.value.code == EXIT_USAGE, text
        # 2^53 itself reaches the run unrounded
        capsys.readouterr()
        assert main([*argv, "9007199254740992"]) == EXIT_GUARD
        assert capsys.readouterr().err == f"error: n_samples={2**53}\n"

    @pytest.mark.parametrize("argv,rule", [
        (["simulate", "--policy", "balanced", "-N", "0", "-B", "3"], "n_workers must be positive"),
        (["simulate", "--policy", "balanced", "-N", "6", "-B", "3", "--samples", "1e20"],
         "n_samples must be at most 2^53"),
        (["coverage", "-B", "5..2", "-N", "6"], "empty range '5..2'"),
        (["sweep", "--rates", "0,1"], "rates must be positive"),
        (["coverage", "-B", "2", "-N", "6", "--mode", "exact", "--seed", "-1"],
         "seed must be a non-negative integer"),
        (["analyze", "--policy", "explicit-structure", "-N", "6", "--groups", "0,2,4;"],
         "group 1 is empty"),
        (["analyze", "--policy", "explicit-vector", "--vector", "1,x"],
         "count must be an integer, got 'x'"),
        (["analyze", "--policy", "balanced", "-N", "6", "-B", "3", "--rate", "abc"],
         "rate must be a number, got 'abc'"),
        (["simulate", "--policy", "balanced", "-N", "6", "-B", "3", "--rate", "1e-160"],
         "rate must lie in [1e-100, 1e100], got 1e-160"),
    ])
    def test_rejected_flag_value_names_the_rule(self, argv, rule, capsys):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == EXIT_USAGE
        stderr = capsys.readouterr().err
        assert rule in stderr
        assert "invalid _" not in stderr

    @pytest.mark.parametrize("text,entries", [
        ("1..2000001", 2000001),
        ("1..600000,1..600000", 600000),  # each range alone is short enough
    ])
    def test_long_range_refused(self, text, entries, capsys):
        with pytest.raises(SystemExit) as err:
            cli.build_parser().parse_args(["coverage", "-B", text, "-N", "1"])
        assert err.value.code == EXIT_USAGE
        assert f"has {entries} entries; a list may expand to at most 1000000" in (
            capsys.readouterr().err
        )

    def test_huge_range_refused_before_it_is_built(self, capsys):
        # 10^10 entries would exhaust memory if the range were expanded first
        with pytest.raises(SystemExit) as err:
            cli.build_parser().parse_args(["coverage", "-B", "1..10000000000", "-N", "1"])
        assert err.value.code == EXIT_USAGE
        assert "range '1..10000000000'" in capsys.readouterr().err

    def test_short_range_still_expands(self):
        args = cli.build_parser().parse_args(["coverage", "-B", "1..6", "-N", "4..5"])
        assert args.n_batches == (1, 2, 3, 4, 5, 6)
        assert args.n_workers == (4, 5)

    def test_io_error(self, tmp_path, capsys):
        missing = tmp_path / "no" / "such" / "dir" / "out.csv"
        assert main([
            "sweep", "--rates", "1", "-B", "5", "--policy", "balanced",
            "--samples", "1000", "--out", str(missing),
        ]) == EXIT_IO
        assert "error:" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path):
        assert main(["sweep", "--config", str(tmp_path / "none.json")]) == EXIT_IO


class TestModuleEntryPoint:
    def test_python_dash_m_runs_the_cli(self, capsys):
        src = Path(__file__).resolve().parent.parent / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        argv = ["analyze", "--policy", "balanced", "-N", "6", "-B", "3"]
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "batchlat", *argv],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == EXIT_OK, proc.stderr
        assert main(argv) == EXIT_OK
        assert proc.stdout == capsys.readouterr().out
