"""Every exported name resolves, so no deleted name is left in an ``__all__``."""

import importlib

import pytest

MODULES = ["batchlat", "batchlat.analytics", "batchlat.policies", "batchlat.sim", "batchlat.cli"]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []
