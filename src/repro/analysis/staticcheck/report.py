"""``rolp-bench staticcheck``: run the conflict analyzer, emit the report.

Report schema: ``rolp-bench/staticcheck/v2`` —

.. code-block:: none

    {
      "schema": "rolp-bench/staticcheck/v2",
      "workloads": [
        {"name", "methods",
         "collision_classes": {"structural", "value-dependent", "clean"},
         "predicted_conflict_sites", "context_space_total",
         "paths_bounded", "unknown_call_targets", "sites": [...]}
      ],
      "corpus": [
        {"file", "rule_id", "check", "conflict_pressure",
         "structural_sites", "oscillating_sites", "conflict_heavy"}
      ],
      "totals": {"workloads", "methods", "predicted_conflict_sites",
                 "conflict_heavy_genomes"}
    }
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.analysis.staticcheck.contexts import (
    WorkloadAnalysis,
    analyze_genome,
    analyze_workload,
)

SCHEMA = "rolp-bench/staticcheck/v2"

#: cap on per-workload site listings in the report (totals stay exact)
MAX_REPORT_SITES = 200


def build_workload(name: str, seed: Optional[int] = None):
    """Construct and *build* (not run) one registered workload: the
    method graph exists after ``workload.build(vm)``, no op executes."""
    from repro import build_vm
    from repro.bench.workload_registry import make_big_workload
    from repro.core.profiler import RolpConfig

    workload = make_big_workload(name, seed=seed)
    vm, _profiler = build_vm(
        "rolp",
        heap_mb=workload.heap_mb,
        young_regions=workload.young_regions,
        rolp_config=RolpConfig(package_filter=workload.package_filter()),
    )
    workload.build(vm)
    return workload, vm


def check_workload(name: str, seed: Optional[int] = None) -> Dict[str, Any]:
    """The conflict analysis of one registered workload."""
    workload, _vm = build_workload(name, seed=seed)
    analysis: WorkloadAnalysis = analyze_workload(workload)
    return {
        "name": name,
        "methods": len(analysis.methods),
        "collision_classes": analysis.counts(),
        "predicted_conflict_sites": len(analysis.predicted_conflict_sites()),
        "context_space_total": analysis.context_space_total(),
        "paths_bounded": analysis.bounded,
        "unknown_call_targets": analysis.unknown_calls,
        "sites": analysis.sites[:MAX_REPORT_SITES],
    }


def check_corpus(corpus_dir: str) -> List[Dict[str, Any]]:
    """Analyze every banked fuzz-corpus genome without simulating it."""
    from repro.bench.fuzz import load_corpus
    from repro.workloads.adversarial import DemographyGenome

    out: List[Dict[str, Any]] = []
    for entry in load_corpus(corpus_dir):
        genome = DemographyGenome.from_dict(entry["genome"])
        summary = analyze_genome(genome)
        out.append(
            {
                "file": entry["_file"],
                "rule_id": entry.get("rule_id"),
                "check": entry.get("check"),
                "conflict_pressure": summary["conflict_pressure"],
                "structural_sites": summary["structural_sites"],
                "oscillating_sites": summary["oscillating_sites"],
                "conflict_heavy": summary["conflict_heavy"],
            }
        )
    return out


def run_staticcheck(
    workloads: Optional[List[str]] = None,
    corpus_dir: Optional[str] = None,
    seed: Optional[int] = None,
) -> Dict[str, Any]:
    """The full ``rolp-bench staticcheck`` payload."""
    from repro.bench.fuzz import DEFAULT_CORPUS_DIR
    from repro.bench.workload_registry import all_workload_names

    names = list(workloads) if workloads else all_workload_names()
    workload_entries = [check_workload(name, seed=seed) for name in names]
    corpus_entries = check_corpus(
        corpus_dir if corpus_dir is not None else DEFAULT_CORPUS_DIR
    )

    totals = {
        "workloads": len(workload_entries),
        "methods": sum(entry["methods"] for entry in workload_entries),
        "predicted_conflict_sites": sum(
            entry["predicted_conflict_sites"] for entry in workload_entries
        ),
        "conflict_heavy_genomes": sum(
            1 for entry in corpus_entries if entry["conflict_heavy"]
        ),
    }
    return {
        "schema": SCHEMA,
        "workloads": workload_entries,
        "corpus": corpus_entries,
        "totals": totals,
    }


def render_report(report: Dict[str, Any]) -> str:
    """Human-readable staticcheck summary."""
    totals = report["totals"]
    lines = [
        "%d workload(s), %d method(s)" % (totals["workloads"], totals["methods"])
    ]
    for entry in report["workloads"]:
        counts = entry["collision_classes"]
        lines.append(
            "  %-14s methods=%-4d conflict-sites=%-4d "
            "(structural=%d value-dependent=%d clean=%d)%s"
            % (
                entry["name"],
                entry["methods"],
                entry["predicted_conflict_sites"],
                counts["structural"],
                counts["value-dependent"],
                counts["clean"],
                " [BOUNDED]" if entry["paths_bounded"] else "",
            )
        )
    if report["corpus"]:
        lines.append(
            "corpus: %d genome(s), %d conflict-heavy"
            % (len(report["corpus"]), totals["conflict_heavy_genomes"])
        )
        for entry in report["corpus"]:
            lines.append(
                "  %-48s pressure=%-3d %s"
                % (
                    entry["file"],
                    entry["conflict_pressure"],
                    "CONFLICT-HEAVY" if entry["conflict_heavy"] else "benign",
                )
            )
    return "\n".join(lines)
