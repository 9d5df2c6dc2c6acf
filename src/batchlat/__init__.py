"""Completion-time analytics and Monte Carlo simulation for redundant
batch-to-worker assignment in master/worker systems with exponential
service times."""

from .model import (
    AssignmentVector,
    BatchLayout,
    BatchlatError,
    CompletionEstimate,
    ComplexityGuardError,
    DomainError,
    NoCoverageError,
    NonDivisibleError,
    NonPositiveError,
    RecoveryStructure,
    ServiceSample,
    SystemParams,
    UncoveredBatchError,
)
from .analytics import (
    ExactProbability,
    coverage_probability,
    coverage_probability_exact_n,
    exact_expected_time_structure,
    expected_time_assignment,
    expected_time_balanced,
    expected_time_cyclic,
    harmonic,
    incomplete_subset_counts,
    is_balanced_minimal,
    majorizes,
    rearranged,
    stirling2,
    stirling2_alternating,
)
from .policies import (
    PolicyKind,
    PolicySpec,
    balanced_assignment,
    cyclic_layout,
    random_cc_assignment,
    replicated_nonoverlap_layout,
    shared_pair_layout,
    validate_policy,
)
from .sim import (
    SimConfig,
    completion_time_exact_cover,
    completion_time_groups,
    completion_time_nonoverlapping,
    coverage_empirical,
    derive_seed,
    monte_carlo,
    sample_service_times,
)

# The command line exports nothing here, but it is loaded with the package
# because perfbench/selftest.py reads ``batchlat.cli`` right after a bare
# ``import batchlat``.
from . import cli

__version__ = "0.1.0"

__all__ = [
    "AssignmentVector",
    "BatchLayout",
    "BatchlatError",
    "CompletionEstimate",
    "ComplexityGuardError",
    "DomainError",
    "ExactProbability",
    "NoCoverageError",
    "NonDivisibleError",
    "NonPositiveError",
    "PolicyKind",
    "PolicySpec",
    "RecoveryStructure",
    "ServiceSample",
    "SimConfig",
    "SystemParams",
    "UncoveredBatchError",
    "balanced_assignment",
    "completion_time_exact_cover",
    "completion_time_groups",
    "completion_time_nonoverlapping",
    "coverage_empirical",
    "coverage_probability",
    "coverage_probability_exact_n",
    "cyclic_layout",
    "derive_seed",
    "exact_expected_time_structure",
    "expected_time_assignment",
    "expected_time_balanced",
    "expected_time_cyclic",
    "harmonic",
    "incomplete_subset_counts",
    "is_balanced_minimal",
    "majorizes",
    "monte_carlo",
    "random_cc_assignment",
    "rearranged",
    "replicated_nonoverlap_layout",
    "sample_service_times",
    "shared_pair_layout",
    "stirling2",
    "stirling2_alternating",
    "validate_policy",
    "__version__",
]
