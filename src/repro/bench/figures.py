"""Figure 6-10 reproduction.

Each ``figureN`` function regenerates the data series of the paper's
figure; each ``render_figureN`` prints the same rows/series the paper
plots.  Shapes — who wins, by what factor, where crossovers fall — are
the reproduction target; absolute milliseconds depend on the bandwidth
model's constants.

Every experiment expands into :mod:`repro.bench.runner` cells and
merges the cell results, so the same call serves the inline default, a
``--jobs N`` worker pool, and warm-cache replays (pass ``runner=``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.conflicts import worst_case_resolution_ns
from repro.metrics.pauses import (
    duration_histogram,
    percentile_profile,
)
from repro.metrics.report import (
    render_histogram_series,
    render_percentile_series,
    render_table,
)
from repro.workloads.dacapo import DACAPO_SPECS, DaCapoSpec
from repro.bench.config import (
    DACAPO_OVERHEAD_OPS,
    WARMUP_OPS,
    scaled_ops,
)
from repro.bench.runner import (
    Runner,
    cell_kind,
    make_cell,
    run_cells,
    shared_seed_scope,
)
from repro.bench.tables import _dacapo_time_cell
from repro.bench.workload_registry import (
    BIG_WORKLOADS,
    big_workload_ops,
    run_big_workload,
)

#: collectors plotted in Figures 8/9 (paper omits ZGC: pauses < 10 ms)
PAUSE_FIGURE_COLLECTORS = ("cms", "g1", "ng2c", "rolp")
#: profiling levels of Figure 6, in plot order
FIG6_MODES = ("none", "fast", "real", "slow")
FIG6_LABELS = {
    "none": "no-call-profiling",
    "fast": "fast-call-profiling",
    "real": "real-profiling",
    "slow": "slow-call-profiling",
}


# --------------------------------------------------------------------------- Figure 6

def figure6(
    specs: Optional[Sequence[DaCapoSpec]] = None,
    runner: Optional[Runner] = None,
) -> Dict[str, Dict[str, float]]:
    """DaCapo execution time normalized to G1 at four profiling levels.

    Returns ``{benchmark: {mode: normalized execution time}}``.  Table
    2 and Figure 7 share the timing cells, so one runner (or a cached
    ``rolp-bench all``) runs each (benchmark, mode) pair once.
    """
    operations = scaled_ops(DACAPO_OVERHEAD_OPS)
    specs = list(specs or DACAPO_SPECS)
    cells = []
    for spec in specs:
        cells.append(_dacapo_time_cell(spec.name, "real", False, operations))
        for mode in FIG6_MODES:
            cells.append(_dacapo_time_cell(spec.name, mode, True, operations))
    results = iter(run_cells(cells, runner))
    series: Dict[str, Dict[str, float]] = {}
    for spec in specs:
        base_ns = next(results)[0]
        series[spec.name] = {mode: next(results)[0] / base_ns for mode in FIG6_MODES}
    return series


def render_figure6(series: Dict[str, Dict[str, float]]) -> str:
    return render_table(
        ["benchmark"] + [FIG6_LABELS[m] for m in FIG6_MODES],
        [
            [name] + ["%.3f" % row[m] for m in FIG6_MODES]
            for name, row in series.items()
        ],
    )


# --------------------------------------------------------------------------- Figure 7

def figure7(
    specs: Optional[Sequence[DaCapoSpec]] = None,
    p_fractions: Sequence[float] = (0.05, 0.10, 0.20, 0.50),
    runner: Optional[Runner] = None,
) -> Dict[str, Dict[float, float]]:
    """Worst-case conflict resolution time (ms) per benchmark and P.

    Uses each benchmark's measured jitted-call-site count and average
    inter-GC interval, plugged into the resolver's worst-case model
    (Section 5: subsets of P% per 16-GC inference pass until all call
    sites are exhausted), both read from Figure 6's profiled ``real`` run.
    """
    operations = scaled_ops(DACAPO_OVERHEAD_OPS)
    specs = list(specs or DACAPO_SPECS)
    cells = [_dacapo_time_cell(spec.name, "real", True, operations) for spec in specs]
    results = run_cells(cells, runner)
    series: Dict[str, Dict[float, float]] = {}
    for spec, (now_ns, call_sites, gc_cycles) in zip(specs, results):
        avg_gc_interval_ns = now_ns / max(1, gc_cycles)
        series[spec.name] = {
            p: worst_case_resolution_ns(call_sites, p, 16, avg_gc_interval_ns) / 1e6
            for p in p_fractions
        }
    return series


def render_figure7(series: Dict[str, Dict[float, float]]) -> str:
    fractions = sorted(next(iter(series.values())).keys()) if series else []
    return render_table(
        ["benchmark"] + ["P=%d%%" % int(p * 100) for p in fractions],
        [
            [name] + ["%.0f" % row[p] for p in fractions]
            for name, row in series.items()
        ],
    )


# ------------------------------------------------------------------- Figures 8 and 9

@dataclass
class PauseStudy:
    """Pause data for one workload across the compared collectors."""

    workload: str
    pauses_ms: Dict[str, List[float]] = field(default_factory=dict)

    def percentiles(self) -> Dict[str, Dict[float, float]]:
        return {
            collector: percentile_profile(pauses)
            for collector, pauses in self.pauses_ms.items()
        }

    def histograms(self) -> Dict[str, List[Tuple[str, int]]]:
        return {
            collector: duration_histogram(pauses)
            for collector, pauses in self.pauses_ms.items()
        }


@cell_kind(
    "pause",
    track=lambda p: "%s/%s" % (p["workload"], p["collector"]),
    # one workload replayed under each collector: the collector is the
    # treatment, the operation stream must be identical across cells
    seed_scope=shared_seed_scope("pause", "collector"),
)
def _pause_cell(seed, telemetry, workload, collector, operations, discard_fraction):
    """One (workload, collector) run; returns the post-warmup pause
    durations in ms — the only data Figures 8/9 need, kept small so
    cache entries stay light."""
    result, _ = run_big_workload(
        workload, collector, operations=operations, seed=seed, telemetry=telemetry
    )
    cutoff_ns = result.elapsed_ms * 1e6 * discard_fraction
    return [p.duration_ms for p in result.pauses if p.start_ns >= cutoff_ns]


def pause_cells(
    workload_names: Optional[Sequence[str]] = None,
    collectors: Sequence[str] = PAUSE_FIGURE_COLLECTORS,
    discard_fraction: float = 0.50,
):
    """The (workload x collector) grid of Figures 8/9 as runner cells."""
    names = list(workload_names or sorted(BIG_WORKLOADS))
    return names, [
        make_cell(
            "pause",
            workload=name,
            collector=collector,
            operations=big_workload_ops(name),
            discard_fraction=discard_fraction,
        )
        for name in names
        for collector in collectors
    ]


def pause_study(
    workload_names: Optional[Sequence[str]] = None,
    collectors: Sequence[str] = PAUSE_FIGURE_COLLECTORS,
    discard_fraction: float = 0.50,
    runner: Optional[Runner] = None,
) -> List[PauseStudy]:
    """Shared runner for Figures 8 and 9: every workload under every
    collector, collecting the raw pause lists.

    ``discard_fraction`` drops the leading part of every run, the
    simulator's analogue of the paper discarding the first 5 of 30
    minutes to exclude JVM loading, JIT compilation and — for ROLP —
    the profile learning phase (the warmup itself is Figure 10's
    subject).  The fraction is larger than the paper's 17% because the
    scaled runs spend proportionally longer warming up.

    Cells merge in grid order, so ``--jobs N`` output is byte-identical
    to the serial run.
    """
    names, cells = pause_cells(workload_names, collectors, discard_fraction)
    results = iter(run_cells(cells, runner))
    studies: List[PauseStudy] = []
    for name in names:
        study = PauseStudy(workload=name)
        for collector in collectors:
            study.pauses_ms[collector] = next(results)
        studies.append(study)
    return studies


def render_figure8(studies: Sequence[PauseStudy]) -> str:
    parts = []
    for study in studies:
        parts.append(
            render_percentile_series(
                study.percentiles(), title="[Figure 8] %s pause percentiles (ms)" % study.workload
            )
        )
    return "\n\n".join(parts)


def render_figure9(studies: Sequence[PauseStudy]) -> str:
    parts = []
    for study in studies:
        parts.append(
            render_histogram_series(
                study.histograms(),
                title="[Figure 9] %s pauses per duration interval (ms)" % study.workload,
            )
        )
    return "\n\n".join(parts)


# --------------------------------------------------------------------------- Figure 10

@dataclass
class WarmupStudy:
    """Figure 10: warmup pause timeline + normalized throughput/memory."""

    #: (pause start in s, duration in ms) for the ROLP run
    rolp_timeline: List[Tuple[float, float]]
    #: collector -> throughput normalized to G1
    throughput_norm: Dict[str, float]
    #: collector -> max memory normalized to G1
    memory_norm: Dict[str, float]
    #: ROLP advice-change counts per inference pass (learning curve)
    decision_changes: List[int]


@cell_kind(
    "fig10_run",
    track=lambda p: "fig10/%s/%s" % (p["workload"], p["collector"]),
    seed_scope=shared_seed_scope("fig10_run", "collector"),
)
def _fig10_cell(seed, telemetry, workload, collector, operations):
    result, wl = run_big_workload(
        workload, collector, operations=operations, seed=seed, telemetry=telemetry
    )
    summary = {
        "throughput_ops_s": result.throughput_ops_s,
        "max_memory_bytes": result.max_memory_bytes,
    }
    if collector == "rolp":
        summary["timeline"] = result.pause_timeline()
        summary["decision_changes"] = list(wl.vm.profiler.decision_change_log)
    return summary


def figure10(
    workload_name: str = "cassandra-wi",
    collectors: Sequence[str] = ("cms", "zgc", "ng2c", "rolp"),
    runner: Optional[Runner] = None,
) -> WarmupStudy:
    operations = scaled_ops(WARMUP_OPS)
    cells = [
        make_cell(
            "fig10_run",
            workload=workload_name,
            collector=collector,
            operations=operations,
        )
        for collector in ("g1",) + tuple(collectors)
    ]
    results = run_cells(cells, runner)
    g1 = results[0]

    throughput_norm = {"g1": 1.0}
    memory_norm = {"g1": 1.0}
    rolp_timeline: List[Tuple[float, float]] = []
    decision_changes: List[int] = []
    for collector, summary in zip(collectors, results[1:]):
        throughput_norm[collector] = (
            summary["throughput_ops_s"] / g1["throughput_ops_s"]
        )
        memory_norm[collector] = summary["max_memory_bytes"] / g1["max_memory_bytes"]
        if collector == "rolp":
            rolp_timeline = summary["timeline"]
            decision_changes = summary["decision_changes"]
    return WarmupStudy(
        rolp_timeline=rolp_timeline,
        throughput_norm=throughput_norm,
        memory_norm=memory_norm,
        decision_changes=decision_changes,
    )


def render_figure10(study: WarmupStudy, buckets: int = 12) -> str:
    parts = ["[Figure 10] Cassandra WI warmup pause times (ROLP)"]
    if study.rolp_timeline:
        end = study.rolp_timeline[-1][0] or 1.0
        width = end / buckets
        rows = []
        for i in range(buckets):
            window = [
                d for (t, d) in study.rolp_timeline if i * width <= t < (i + 1) * width
            ]
            rows.append(
                [
                    "%.2f-%.2fs" % (i * width, (i + 1) * width),
                    len(window),
                    "%.2f" % (sum(window) / len(window)) if window else "-",
                    "%.2f" % max(window) if window else "-",
                ]
            )
        parts.append(render_table(["window", "pauses", "avg ms", "max ms"], rows))
    parts.append("decision changes per inference pass: %s" % study.decision_changes)
    collectors = sorted(study.throughput_norm)
    parts.append(
        render_table(
            ["metric"] + collectors,
            [
                ["throughput/G1"]
                + ["%.3f" % study.throughput_norm[c] for c in collectors],
                ["max-memory/G1"]
                + ["%.3f" % study.memory_norm[c] for c in collectors],
            ],
        )
    )
    return "\n".join(parts)
