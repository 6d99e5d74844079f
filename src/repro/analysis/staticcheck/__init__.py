"""Ahead-of-time context-conflict analyzer.

:mod:`repro.analysis.staticcheck.contexts` builds a static call graph
over workload method bodies, symbolically executes the 32-bit context
encoding and predicts a collision class per allocation site,
cross-validated against the runtime profiler's observed conflicts
stream (see ``docs/static-analysis.md``).

Entry points: ``rolp-bench staticcheck`` (CLI, report in
:mod:`repro.analysis.staticcheck.report`) and the fuzz harness's static
conflict predictor (:func:`static_conflict_pressure`).
"""

from repro.analysis.staticcheck.contexts import (
    CONFLICT_HEAVY_MIN,
    PATH_CAP,
    WorkloadAnalysis,
    analyze_genome,
    analyze_workload,
    collect_methods,
    method_shape,
    observed_conflict_site_ids,
    observed_conflicts,
    static_conflict_pressure,
    validate_against_runtime,
)
from repro.analysis.staticcheck.report import (
    SCHEMA,
    build_workload,
    check_workload,
    render_report,
    run_staticcheck,
)

__all__ = [
    "CONFLICT_HEAVY_MIN",
    "PATH_CAP",
    "SCHEMA",
    "WorkloadAnalysis",
    "analyze_genome",
    "analyze_workload",
    "build_workload",
    "check_workload",
    "collect_methods",
    "method_shape",
    "observed_conflict_site_ids",
    "observed_conflicts",
    "render_report",
    "run_staticcheck",
    "static_conflict_pressure",
    "validate_against_runtime",
]
