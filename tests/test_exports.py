"""Every exported name resolves, so no deleted name is left in an ``__all__``,
and every function the benchmark's tracer wraps by name still exists."""

import ast
import importlib
from pathlib import Path

import pytest

MODULES = ["batchlat", "batchlat.analytics", "batchlat.policies", "batchlat.sim", "batchlat.cli"]

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []


def test_traced_names_resolve():
    # read TRACED from the source, without importing or running the tracer
    (traced,) = [
        ast.literal_eval(node.value)
        for node in ast.parse(TRACER.read_text()).body
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "TRACED"
    ]
    assert traced
    missing = [
        (home, attr)
        for home, attr in traced
        if not callable(getattr(importlib.import_module(f"batchlat.{home}"), attr, None))
    ]
    assert missing == []
