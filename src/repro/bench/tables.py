"""Table 1 and Table 2 reproduction.

* **Table 1** — Big Data benchmark profiling summary: for each of the
  six large-scale workloads under ROLP, the fraction of allocation
  sites (PAS) and method-call sites (PMC) that received profiling code,
  the number of allocation-context conflicts (#CFs), the number of
  hand annotations the NG2C baseline needs, and the OLD table's memory
  footprint.
* **Table 2** — DaCapo profiling: per benchmark, the heap size, the
  profiled method-call and allocation-site counts, the number of
  conflicts, and the expected throughput overhead of tracking P=20% of
  all method calls (the conflict-resolution cost simulation reported on
  the right side of the paper's table).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.core import RolpConfig, RolpProfiler
from repro.gc import G1Collector
from repro.heap import BandwidthModel, RegionHeap
from repro.metrics.report import render_table
from repro.runtime import JavaVM, VMFlags
from repro.workloads.base import run_workload
from repro.workloads.dacapo import DACAPO_SPECS, DaCapoSpec, DaCapoWorkload, get_spec
from repro.bench.config import DACAPO_OVERHEAD_OPS, DACAPO_PROFILE_OPS, scaled_ops
from repro.bench.runner import (
    Runner,
    cell_kind,
    make_cell,
    run_cells,
    shared_seed_scope,
)
from repro.bench.workload_registry import (
    BIG_WORKLOADS,
    big_workload_ops,
    run_big_workload,
)


@dataclass
class Table1Row:
    workload: str
    pas_percent: float
    pmc_percent: float
    conflicts: int
    ng2c_annotations: int
    old_table_mb: float


@cell_kind("table1", track=lambda p: "table1/%s/rolp" % p["workload"])
def _table1_cell(seed, telemetry, workload, operations) -> Table1Row:
    """One workload under ROLP, summarized straight into its table row
    (the row is what crosses the worker/cache boundary, not the VM)."""
    result, wl = run_big_workload(
        workload, "rolp", operations=operations, seed=seed, telemetry=telemetry
    )
    vm = wl.vm
    profiler = vm.profiler
    total_alloc, total_calls = wl.count_sites()
    pas = vm.jit.profiled_alloc_site_count / total_alloc * 100 if total_alloc else 0
    pmc = vm.jit.profiled_call_site_count / total_calls * 100 if total_calls else 0
    return Table1Row(
        workload=workload,
        pas_percent=pas,
        pmc_percent=pmc,
        conflicts=profiler.resolver.conflicts_seen,
        ng2c_annotations=wl.annotated_sites,
        old_table_mb=profiler.old_table_memory_bytes() / (1 << 20),
    )


def table1(
    workload_names: Optional[Sequence[str]] = None,
    runner: Optional[Runner] = None,
) -> List[Table1Row]:
    """Run the six large workloads under ROLP and collect Table 1."""
    cells = [
        make_cell("table1", workload=name, operations=big_workload_ops(name))
        for name in workload_names or sorted(BIG_WORKLOADS)
    ]
    return run_cells(cells, runner)


def render_table1(rows: Sequence[Table1Row]) -> str:
    return render_table(
        ["workload", "PAS %", "PMC %", "#CFs", "NG2C", "OLD MB"],
        [
            [
                r.workload,
                "%.1f" % r.pas_percent,
                "%.1f" % r.pmc_percent,
                r.conflicts,
                r.ng2c_annotations,
                "%.0f" % r.old_table_mb,
            ]
            for r in rows
        ],
    )


@dataclass
class Table2Row:
    benchmark: str
    heap_mb: int
    pmc: int
    pas: int
    conflicts: int
    #: expected throughput overhead of tracking 20% of method calls
    conflict_overhead_percent: float


def _run_dacapo(
    spec: DaCapoSpec,
    mode: str,
    profiled: bool,
    operations: int,
    telemetry=None,
    seed: Optional[int] = None,
) -> JavaVM:
    """One DaCapo run on G1 (profiling overhead isolated from GC
    policy changes, as in the paper's Figure 6 setup)."""
    workload = DaCapoWorkload(spec) if seed is None else DaCapoWorkload(spec, seed=seed)
    heap = RegionHeap(workload.heap_mb << 20)
    gc = G1Collector(heap, BandwidthModel(), young_regions=workload.young_regions)
    profiler = RolpProfiler(RolpConfig()) if profiled else None
    vm = JavaVM(gc, profiler, VMFlags(call_profiling_mode=mode), telemetry)
    workload.build(vm)
    for op_index in range(operations):
        workload.run_op(op_index)
    return vm


def _dacapo_track(params) -> str:
    mode = "baseline" if not params["profiled"] else params["mode"]
    return "fig6/%s/%s" % (params["benchmark"], mode)


@cell_kind(
    "dacapo_time",
    track=_dacapo_track,
    # base/fast/slow runs of one benchmark form a controlled timing
    # comparison; only the JIT mode may differ between them
    seed_scope=shared_seed_scope("dacapo_time", "mode", "profiled"),
)
def _dacapo_time(seed, telemetry, benchmark, mode, profiled, operations) -> Tuple[int, int, int]:
    """``(now_ns, profiled_call_sites, gc_cycles)`` of one DaCapo
    configuration — Figure 6 and Table 2's overhead simulation read the
    time, Figure 7 all three of the profiled ``real`` run."""
    vm = _run_dacapo(
        get_spec(benchmark),
        mode,
        profiled=profiled,
        operations=operations,
        telemetry=telemetry,
        seed=seed,
    )
    return vm.clock.now_ns, vm.jit.profiled_call_site_count, vm.collector.gc_cycles


def _dacapo_time_cell(benchmark: str, mode: str, profiled: bool, operations: int):
    return make_cell(
        "dacapo_time",
        benchmark=benchmark,
        mode=mode,
        profiled=profiled,
        operations=operations,
    )


@cell_kind("table2_profile", track=lambda p: "table2/%s/rolp" % p["benchmark"])
def _table2_profile(seed, telemetry, benchmark, operations):
    """Conflict discovery run (ROLP on NG2C, full pipeline)."""
    workload = DaCapoWorkload(get_spec(benchmark), seed=seed)
    run_workload(workload, "rolp", operations=operations, telemetry=telemetry)
    vm = workload.vm
    return {
        "conflicts": vm.profiler.resolver.conflicts_seen,
        "pmc": vm.jit.profiled_call_site_count,
        "pas": vm.jit.profiled_alloc_site_count,
    }


def table2(
    specs: Optional[Sequence[DaCapoSpec]] = None,
    runner: Optional[Runner] = None,
) -> List[Table2Row]:
    """Run the DaCapo suite under ROLP and collect Table 2.

    Per benchmark: one profile cell plus three timing cells for the
    overhead simulation — what would tracking 20% of method calls cost,
    measured as 20% of the fast→slow execution-time gap.  The timing
    cells are the same cells Figure 6 uses.
    """
    profile_ops = scaled_ops(DACAPO_PROFILE_OPS)
    overhead_ops = scaled_ops(DACAPO_OVERHEAD_OPS)
    specs = list(specs or DACAPO_SPECS)
    cells = []
    for spec in specs:
        cells.append(
            make_cell("table2_profile", benchmark=spec.name, operations=profile_ops)
        )
        cells.append(_dacapo_time_cell(spec.name, "real", False, overhead_ops))
        cells.append(_dacapo_time_cell(spec.name, "fast", True, overhead_ops))
        cells.append(_dacapo_time_cell(spec.name, "slow", True, overhead_ops))
    results = iter(run_cells(cells, runner))
    rows: List[Table2Row] = []
    for spec in specs:
        profile = next(results)
        base_ns = next(results)[0]
        fast_ns = next(results)[0]
        slow_ns = next(results)[0]
        gap = (slow_ns - fast_ns) / base_ns
        rows.append(
            Table2Row(
                benchmark=spec.name,
                heap_mb=spec.heap_mb,
                pmc=profile["pmc"],
                pas=profile["pas"],
                conflicts=profile["conflicts"],
                conflict_overhead_percent=max(0.0, 0.20 * gap * 100),
            )
        )
    return rows


def render_table2(rows: Sequence[Table2Row]) -> str:
    return render_table(
        ["benchmark", "HS MB", "PMC", "PAS", "CF #", "CF ovh %"],
        [
            [
                r.benchmark,
                r.heap_mb,
                r.pmc,
                r.pas,
                r.conflicts,
                "%.2f" % r.conflict_overhead_percent,
            ]
            for r in rows
        ],
    )
