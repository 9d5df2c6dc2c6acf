#!/usr/bin/env python3
"""Check that the command line gives the same bytes as at another commit.

Usage:
    python3 scripts/same_output.py REF

It unpacks `git archive REF` into a temporary directory, then runs every
command in COMMANDS twice: with that tree's `src/` on PYTHONPATH, and with
the working tree's. Each run has a fresh directory, holding a copy of its
tree's `configs/`, as its working directory. The script prints each
difference in exit code, stdout, stderr or a file that the command wrote,
and exits 1 if it found one. It needs only the standard library. A run
takes about 30 s on a 2-vCPU x86-64 box, most of it in the two full-size
sweeps of the default config. BATCHLAT_THREADS, 2 unless set, sets the
sweeps' thread count, which changes no output.
"""

import difflib
import io
import os
import shlex
import shutil
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEFAULT = "--config configs/sweep_default.json"

COMMANDS = [
    # analyze: every kind, and the shapes that a kind refuses
    "analyze --policy balanced -N 6 -B 3",
    "analyze --policy explicit-vector --vector 3,2,1",
    "analyze --policy random-cc -N 6 -B 3",
    "analyze --policy cyclic -N 50 -B 25",
    "analyze --policy grouped-overlap",
    "analyze --policy grouped-overlap -N 7",
    "analyze --policy explicit-structure -N 6 --groups '0,2,4;1,3,5'",
    "analyze --policy explicit-structure -N 7 -B 2 --groups '0,1;2,3'",
    "analyze --policy explicit-vector --vector 3,2,1 -N 7",
    "analyze --policy explicit-vector --vector 3,2,1 -B 2",
    "analyze --policy explicit-vector --vector 3,0,1",
    "analyze --policy explicit-structure --groups 0,1",
    "analyze --policy balanced -N 6",
    "analyze --policy cyclic -N 100000 -B 1",
    # simulate: every kind, and random-cc with more batches than workers
    "simulate --policy balanced -N 6 -B 3 --samples 20000",
    "simulate --policy explicit-vector --vector 3,2,1 --samples 20000 --rate 2",
    "simulate --policy random-cc -N 12 -B 3 --samples 20000",
    "simulate --policy random-cc -N 2 -B 5 --samples 200000",
    "simulate --policy cyclic -N 12 -B 4 --samples 20000",
    "simulate --policy grouped-overlap --samples 20000",
    "simulate --policy explicit-structure -N 6 -B 3 --groups '0,2,4;1,3,5' --samples 20000",
    "compare-fig4 --samples 20000",
    "coverage -B 1..4 -N 4,8 --mode both --samples 20000 --out coverage.csv",
    # the empirical kernel's hit words of 8 to 64 bits, and its table past B = 64
    "coverage -B 10,33,64,65 -N 20,200 --mode empirical --samples 20000",
    # coverage's exact route over every B, N <= 12, then its bits and B*N guards
    "coverage -B 1..12 -N 1..12",
    "coverage -B 3 -N 3333333",
    "coverage -B 11 -N 909091",
    # sweeps: two refused, then the default config, small and at full size
    "sweep --policy explicit-vector",
    "sweep -N 10 -B 4 --samples 1000",
    f"sweep {DEFAULT} --samples 2000 --out sweep.csv",
    f"sweep {DEFAULT} --samples 2000 --policy balanced,cyclic,random-cc --format json --out sweep.json",
    f"sweep {DEFAULT} --seed 530 --out sweep.csv",
    f"sweep {DEFAULT} --seed 530 --format json --out sweep.json",
]


def files(directory: Path) -> dict[str, Path]:
    return {str(p.relative_to(directory)): p for p in directory.rglob("*") if p.is_file()}


def run(tree: Path, command: str) -> dict[str, bytes]:
    """Exit code, stdout, stderr and written files of one command against a tree."""
    env = {
        **os.environ,
        "PYTHONPATH": str(tree / "src"),
        "PYTHONDONTWRITEBYTECODE": "1",
        "BATCHLAT_THREADS": os.environ.get("BATCHLAT_THREADS", "2"),
    }
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        shutil.copytree(tree / "configs", work / "configs")
        inputs = set(files(work))
        proc = subprocess.run(
            [sys.executable, "-m", "batchlat", *shlex.split(command)],
            cwd=work, env=env, capture_output=True,
        )
        out = {"exit code": str(proc.returncode).encode(), "stdout": proc.stdout,
               "stderr": proc.stderr}
        for name, path in files(work).items():
            if name not in inputs:
                out[f"file {name}"] = path.read_bytes()
    return out


def report(ref: dict[str, bytes], new: dict[str, bytes]) -> list[str]:
    """One unified diff, at most 20 lines, per output that differs."""
    lines = []
    for key in sorted(set(ref) | set(new)):
        a, b = ref.get(key), new.get(key)
        if a == b:
            continue
        if a is None or b is None:
            lines.append(f"  {key}: written only {'in the working tree' if a is None else 'at the reference'}")
            continue
        diff = difflib.unified_diff(
            a.decode(errors="replace").splitlines(), b.decode(errors="replace").splitlines(),
            "reference", "working tree", lineterm="",
        )
        lines.append(f"  {key} differs:")
        lines += [f"    {line}" for line in list(diff)[:20]]
    return lines


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python3 scripts/same_output.py REF", file=sys.stderr)
        return 2
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", argv[0]], capture_output=True)
    if archive.returncode != 0:
        sys.stderr.buffer.write(archive.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        ref_tree = Path(tmp)
        with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
            tar.extractall(ref_tree, filter="data")
        changed = 0
        for command in COMMANDS:
            lines = report(run(ref_tree, command), run(ROOT, command))
            print(f"{'DIFF' if lines else 'same'}  batchlat {command}", flush=True)
            for line in lines:
                print(line)
            changed += bool(lines)
    print(f"{len(COMMANDS) - changed} of {len(COMMANDS)} commands gave the same bytes at "
          f"{argv[0]} and in the working tree")
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
