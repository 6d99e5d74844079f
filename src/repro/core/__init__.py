"""ROLP — the paper's primary contribution.

The public surface is :class:`RolpProfiler` plus the pieces it is built
from, each individually usable and tested: the OLD table, the inference
engine, the conflict resolver, the advice table, the package filters and
the survivor-tracking controller.
"""

from repro.core.advice import AdviceTable
from repro.core.conflicts import ConflictResolver, worst_case_resolution_ns
from repro.core.context import context_site, context_stack_state, encode
from repro.core.filters import PackageFilter
from repro.core.inference import (
    CurveAnalysis,
    InferenceEngine,
    InferenceResult,
    analyze_curve,
    distinct_triangles,
    find_peaks,
)
from repro.core.offline import OfflineAdviceProfiler, OfflineProfile
from repro.core.old_table import OldTable, WorkerTable
from repro.core.profiler import RolpConfig, RolpProfiler
from repro.core.survivor_tracking import SurvivorTrackingController

__all__ = [
    "AdviceTable",
    "ConflictResolver",
    "CurveAnalysis",
    "InferenceEngine",
    "InferenceResult",
    "OfflineAdviceProfiler",
    "OfflineProfile",
    "OldTable",
    "PackageFilter",
    "RolpConfig",
    "RolpProfiler",
    "SurvivorTrackingController",
    "WorkerTable",
    "analyze_curve",
    "context_site",
    "context_stack_state",
    "distinct_triangles",
    "encode",
    "find_peaks",
    "worst_case_resolution_ns",
]
