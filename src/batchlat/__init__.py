"""Completion-time analytics and Monte Carlo simulation for redundant
batch-to-worker assignment in master/worker systems with exponential
service times."""

from .model import (
    BatchlatError,
    CompletionEstimate,
    ComplexityGuardError,
    DomainError,
    NoCoverageError,
    RecoveryStructure,
    SystemParams,
)
from .analytics import (
    coverage_probability,
    exact_expected_time_structure,
    expected_time_assignment,
    expected_time_balanced,
    expected_time_cyclic,
    harmonic,
    incomplete_subset_counts,
    majorizes,
    rearranged,
)
from .policies import (
    PolicyKind,
    PolicySpec,
    balanced_assignment,
    cyclic_layout,
    replicated_nonoverlap_layout,
    shared_pair_layout,
)
from .sim import (
    SimConfig,
    coverage_empirical,
    derive_seed,
    monte_carlo,
)

# The command line exports nothing here, but it is loaded with the package
# because perfbench/selftest.py reads ``batchlat.cli`` right after a bare
# ``import batchlat``.
from . import cli

__version__ = "0.1.0"

__all__ = [
    "BatchlatError",
    "CompletionEstimate",
    "ComplexityGuardError",
    "DomainError",
    "NoCoverageError",
    "PolicyKind",
    "PolicySpec",
    "RecoveryStructure",
    "SimConfig",
    "SystemParams",
    "balanced_assignment",
    "coverage_empirical",
    "coverage_probability",
    "cyclic_layout",
    "derive_seed",
    "exact_expected_time_structure",
    "expected_time_assignment",
    "expected_time_balanced",
    "expected_time_cyclic",
    "harmonic",
    "incomplete_subset_counts",
    "majorizes",
    "monte_carlo",
    "rearranged",
    "replicated_nonoverlap_layout",
    "shared_pair_layout",
    "__version__",
]
