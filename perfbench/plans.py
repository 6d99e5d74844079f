"""What each workload runs, how big it is, and what each metric means.

The metric tables at the bottom are the benchmark's own record of every
metric's unit, direction, workloads and the end-to-end metric a layer
metric should move; the root ``BENCHMARK.json`` repeats name, unit,
direction and bound, and the self-tests check that the two agree.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, List, Tuple

WORKLOADS = ("dacapo-grid", "bigdata-grid", "serve-sessions")
GRIDS = WORKLOADS[:2]
#: "mini" is the self-tests' size; the benchmark always runs "full"
SIZES = ("full", "mini")

#: ROLP_BENCH_SCALE of every child process.  DaCapo cells sit at the
#: 2000-op floor of ``scaled_ops`` at any scale up to 0.1, so this sizes
#: the big-data grid only.
SCALE = "0.05"

#: fresh-process starts per run for the set-up median
SETUP_PROBES = 7

#: the four most call-heavy Table 2 calibrations (289-1180 calls/op
#: against 38-64 allocations/op); pmd, tomcat and tradesoap carry
#: Table 2's conflicts
DACAPO_BENCHMARKS = {"full": ("jython", "tradesoap", "pmd", "tomcat"), "mini": ("pmd",)}

#: copy-heavy big-data workloads; Figure 10 and the ablations run on
#: cassandra-wi by construction
BIGDATA_WORKLOADS = {"full": ("cassandra-wi", "lucene", "graphchi-cc"), "mini": ("graphchi-cc",)}

Experiment = Callable[[object], List[Tuple[str, object]]]


def grid_experiments(workload: str, size: str) -> List[Experiment]:
    """The grid's experiment calls, in order.  Each takes the runner and
    returns ``[(artifact name, payload)]`` after rendering its text —
    the same functions and renderers ``rolp-bench`` calls."""
    if workload == "dacapo-grid":
        return _dacapo(DACAPO_BENCHMARKS[size])
    if workload == "bigdata-grid":
        return _bigdata(BIGDATA_WORKLOADS[size], full=size == "full")
    raise ValueError("not a grid workload: %r" % workload)


def _dacapo(names) -> List[Experiment]:
    from repro.bench import artifacts, figures, tables
    from repro.workloads.dacapo import SPEC_BY_NAME

    specs = [SPEC_BY_NAME[name] for name in names]

    def fig6(runner):
        series = figures.figure6(specs, runner=runner)
        figures.render_figure6(series)
        return [("fig6", artifacts.figure6_payload(series))]

    def table2(runner):
        rows = tables.table2(specs, runner=runner)
        tables.render_table2(rows)
        return [("table2", artifacts.table2_payload(rows))]

    def fig7(runner):
        series = figures.figure7(specs, runner=runner)
        figures.render_figure7(series)
        return [("fig7", artifacts.figure7_payload(series))]

    return [fig6, table2, fig7]


def _bigdata(names, full: bool) -> List[Experiment]:
    from repro.bench import ablations, artifacts, cli, figures, tables

    def table1(runner):
        rows = tables.table1(names, runner=runner)
        tables.render_table1(rows)
        return [("table1", artifacts.table1_payload(rows))]

    def fig8_fig9(runner):
        studies = figures.pause_study(names, runner=runner)
        figures.render_figure8(studies)
        figures.render_figure9(studies)
        return [
            ("fig8", artifacts.pause_study_payload(studies)),
            ("fig9", artifacts.pause_study_payload(studies)),
        ]

    def fig10(runner):
        study = figures.figure10(runner=runner)
        figures.render_figure10(study)
        return [("fig10", artifacts.figure10_payload(study))]

    def ablation_studies(runner):
        out = []
        for key, run, title in cli.ABLATIONS:
            results = run(runner=runner)
            ablations.render_ablation(results, title)
            out.append(("ablation_" + key, artifacts.ablation_payload(results)))
        return out

    return [table1, fig8_fig9] + ([fig10, ablation_studies] if full else [])


# ------------------------------------------------------------------ serve

#: session bindings the clients draw from
SERVE_BINDINGS = (
    ("cassandra-wi", "g1"),
    ("cassandra-wi", "rolp"),
    ("lucene", "g1"),
    ("lucene", "rolp"),
)
SERVE_CLIENTS = 2
#: steps per session; each session then runs one whole-run job
SERVE_STEPS = 4
SERVE_SESSIONS = {"full": 2000, "mini": 4}  # per client
#: ops of a repeated step and of every run job: cells the warm set serves
SERVE_STEP_OPS = 200
SERVE_RUN_OPS = 400
#: the j-th fresh step is step j % SERVE_STEPS with SERVE_FRESH_OPS +
#: j // SERVE_STEPS ops (always fewer than SERVE_STEP_OPS): a cell no one
#: served before
SERVE_FRESH_OPS = 150
#: the binding of every fresh step: ROLP's profiler on the simulation path
SERVE_FRESH_BINDING = ("cassandra-wi", "rolp")
#: the server's base seed.  It fixes what every cell computes, so the
#: workload seed only shapes the session plan and the fresh cells cost
#: the same under every workload seed.
SERVE_SEED = 1
#: share of the load phase's jobs that are fresh cells; the other 99.8%
#: repeat warm cells and are answered by the runner's memo
SERVE_FRESH_SHARE = 0.002
#: sessions per client between two reference measurements (common.Pacer)
SERVE_PACE_SESSIONS = 5


@dataclass(frozen=True)
class Script:
    """One session: create, the steps (ops of each), one run, close."""

    workload: str
    collector: str
    steps: Tuple[int, ...]

    @property
    def jobs(self) -> int:
        return len(self.steps) + 1

    def cells(self) -> list:
        """The job cells in request order (the serial oracle's input)."""
        from repro.bench.runner import make_cell

        cells = [
            make_cell(
                "session_step",
                workload=self.workload,
                collector=self.collector,
                operations=ops,
                step=index,
            )
            for index, ops in enumerate(self.steps)
        ]
        cells.append(
            make_cell(
                "trace_run",
                workload=self.workload,
                collector=self.collector,
                operations=SERVE_RUN_OPS,
            )
        )
        return cells


def serve_plan(seed: int, size: str) -> Tuple[List[Script], List[List[Script]]]:
    """``(warm set, one script list per client)`` drawn from ``seed``.

    Bindings come in seeded permutations of :data:`SERVE_BINDINGS`.  The
    fresh steps all sit in :data:`SERVE_FRESH_BINDING` sessions of the
    first client, at seeded positions: the other client's memo-answered
    jobs queue behind them, but two fresh cells never do, and the slowest
    jobs form one cluster of near-equal cost that the tail percentile
    lands inside.
    """
    rng = random.Random(seed)
    sessions = SERVE_CLIENTS * SERVE_SESSIONS[size]
    order: List[Tuple[str, str]] = []
    while len(order) < sessions:
        block = list(SERVE_BINDINGS)
        rng.shuffle(block)
        order.extend(block)
    order = order[:sessions]
    count = max(1, round(SERVE_FRESH_SHARE * sessions * (SERVE_STEPS + 1)))
    hosts = [
        index for index, bound in enumerate(order)
        if bound == SERVE_FRESH_BINDING and index % SERVE_CLIENTS == 0
    ]
    # the j-th fresh step is step j % SERVE_STEPS of its session and takes
    # SERVE_FRESH_OPS + j // SERVE_STEPS ops under every seed: the seed
    # places the fresh cells, it does not choose them, and they differ in
    # key but hardly in cost
    fresh = {
        index: (j % SERVE_STEPS, SERVE_FRESH_OPS + j // SERVE_STEPS)
        for j, index in enumerate(sorted(rng.sample(hosts, min(count, len(hosts)))))
    }
    scripts = []
    for index, binding in enumerate(order):
        steps = [SERVE_STEP_OPS] * SERVE_STEPS
        if index in fresh:
            step, ops = fresh[index]
            steps[step] = ops
        scripts.append(Script(*binding, tuple(steps)))
    warm = [Script(w, c, (SERVE_STEP_OPS,) * SERVE_STEPS) for w, c in SERVE_BINDINGS]
    return warm, [scripts[client::SERVE_CLIENTS] for client in range(SERVE_CLIENTS)]


# ---------------------------------------------------------------- metrics

#: end-to-end metrics: name -> (unit, better, definition).  Every
#: workload reports every one of them.  Every time is in reference
#: seconds (common.Pacer): wall time scaled to the host speed at which
#: the reference kernel takes common.REFERENCE_S.
END_TO_END = {
    "setup_s": (
        "s",
        "lower",
        "grids: fresh process start until the first cell starts; serve: server "
        "spawn until the first /healthz 200.  Median of SETUP_PROBES starts.",
    ),
    "wall_s": (
        "s",
        "lower",
        "grids: wall time of the grid's experiment calls, rendering included, "
        "serial on one Runner (grid_s); serve: wall time of the load phase.",
    ),
    "throughput_per_s": (
        "1/s",
        "higher",
        "grids: cells executed per second of wall_s; serve: jobs completed per "
        "second of the load phase (serve_jobs_per_s).",
    ),
    "p50_ms": (
        "ms",
        "lower",
        "grids: median per-cell wall time; serve: median job latency from "
        "request written to response read (serve_p50_ms).",
    ),
    "tail_ms": (
        "ms",
        "lower",
        "the same latencies at the highest percentile with >= 10 samples "
        "beyond it in one pass (serve_tail_ms); see README.md.",
    ),
    "peak_rss_mb": (
        "MiB",
        "lower",
        "max RSS of the process doing the work: the grid process, or the "
        "server process.",
    ),
}

_BOTH_GRIDS = "wall_s on dacapo-grid and bigdata-grid"
_SHARE_MOVES = {
    "runtime": "wall_s on dacapo-grid",
    "heap": "wall_s and peak_rss_mb on bigdata-grid",
    "gc": "wall_s on bigdata-grid",
    "core": "wall_s on bigdata-grid",
    "workloads": _BOTH_GRIDS,
    "metrics": "wall_s on bigdata-grid (small)",
    "telemetry": "none: stays ~0 everywhere",
    "bench": "wall_s on both grids; p50_ms on serve-sessions",
    "server": "p50_ms and throughput_per_s on serve-sessions",
    "analysis": "none: stays ~0 everywhere",
}

#: per-layer metrics (traced pass only): name -> (unit, better, moves)
PER_LAYER = {
    "bench.runner.run.calls": ("count", "lower", _BOTH_GRIDS + "; throughput_per_s on serve-sessions"),
    "bench.runner.run.busy_s": ("s", "lower", _BOTH_GRIDS + "; throughput_per_s on serve-sessions"),
    "bench.runner.cells": ("count", "lower", _BOTH_GRIDS),
    "bench.runner.memo_hits": ("count", "higher", _BOTH_GRIDS + "; p50_ms on serve-sessions"),
    "bench.runner.cache_hits": ("count", "higher", "wall_s on bigdata-grid"),
    "bench.runner.cache_misses": ("count", "lower", "wall_s on bigdata-grid"),
    "bench.cache.store.calls": ("count", "lower", "wall_s on bigdata-grid (0 on dacapo-grid)"),
    "bench.cache.store.busy_s": ("s", "lower", "wall_s on bigdata-grid (0 on dacapo-grid)"),
    "bench.cache.load.calls": ("count", "lower", "warm-replay read path on bigdata-grid; no end-to-end move"),
    "bench.cache.load.busy_s": ("s", "lower", "warm-replay read path on bigdata-grid; no end-to-end move"),
    "bench.cache.load.hit_ratio": ("ratio", "higher", "warm-replay read path on bigdata-grid; no end-to-end move"),
    "bench.render.busy_s": ("s", "lower", _BOTH_GRIDS + " (small)"),
    "workloads.run_op.calls": ("count", "lower", _BOTH_GRIDS + "; must repeat exactly"),
    "workloads.run_op.busy_s": ("s", "lower", _BOTH_GRIDS),
    "workloads.run_op.self_s": ("s", "lower", _BOTH_GRIDS),
    "runtime.vm_run.calls": ("count", "lower", "wall_s on dacapo-grid"),
    "runtime.vm_run.busy_s": ("s", "lower", "wall_s on dacapo-grid"),
    "runtime.vm_run.self_s": ("s", "lower", "wall_s on dacapo-grid"),
    "gc.collect_young.calls": ("count", "lower", "wall_s on bigdata-grid"),
    "gc.collect_young.busy_s": ("s", "lower", "wall_s on bigdata-grid"),
    "gc.collect_young.self_s": ("s", "lower", "wall_s on bigdata-grid"),
    "gc.collect_full.calls": ("count", "lower", "wall_s on bigdata-grid"),
    "gc.collect_full.busy_s": ("s", "lower", "wall_s on bigdata-grid"),
    "core.on_gc_survivors.calls": ("count", "lower", "wall_s on bigdata-grid"),
    "core.on_gc_survivors.busy_s": ("s", "lower", "wall_s on bigdata-grid"),
    "core.on_gc_end.calls": ("count", "lower", "wall_s on bigdata-grid"),
    "core.on_gc_end.busy_s": ("s", "lower", "wall_s on bigdata-grid"),
    "server.handle.calls": ("count", "lower", "p50_ms on serve-sessions"),
    "server.handle.busy_s": ("s", "lower", "p50_ms on serve-sessions"),
    "server.handle.self_s": ("s", "lower", "p50_ms on serve-sessions"),
    "server.http_s": ("s", "lower", "p50_ms on serve-sessions"),
    "server.queue_wait_s": ("s", "lower", "tail_ms on serve-sessions"),
    "server.batch_size_mean": ("jobs", "higher", "throughput_per_s on serve-sessions"),
    "server.memo_hit_ratio": ("ratio", "higher", "p50_ms and throughput_per_s on serve-sessions"),
    "server.retry_ratio": ("ratio", "lower", "tail_ms on serve-sessions"),
}
for _layer, _moves in _SHARE_MOVES.items():
    PER_LAYER[_layer + ".sampled_share"] = ("ratio", "lower", _moves)
PER_LAYER["trace.coverage"] = ("ratio", "higher", "validity of the trace: >= 0.95")
PER_LAYER["trace.overhead_ratio"] = (
    "ratio",
    "lower",
    "validity of the trace: traced over untraced wall_s (grids) or p50_ms (serve)",
)

#: the BENCH_6 perf kernels and the layer each stands for
KERNEL_LAYERS = (
    ("alloc", ("runtime", "heap")),
    ("call", ("runtime",)),
    ("survivor", ("core",)),
    ("header", ("heap",)),
    ("gc_copy", ("gc",)),
)
