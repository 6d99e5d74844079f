"""Per-pause root-cause attribution: *why* was p99.9 slow?

The pause-percentile tables (Figures 8/9) say how long pauses were;
this module says where the time went.  During a traced run every
copying collection attaches a ``contributions`` list to its ``gc/``
span event: bytes copied per (allocation context, age class), read from
the pre-aging object headers at the pause's copy choke points.  The
analyzer decomposes each pause's duration pro-rata over those bytes,
ranks the (context, age) pairs that dominate the *tail* (the top
p99/p99.9 pauses), and contrasts their tail share against their share
across all pauses — a context that is ordinary at p50 but dominant at
p99.9 is exactly the long-lived-allocation-site signal ROLP exists to
find (and pretenure away).

``rolp-bench explain`` drives this end to end: a grid of ``explain_run``
cells (each a workload x collector run recorded through its own bounded
:class:`~repro.telemetry.flightrec.FlightRecorder`, so results are
identical under ``--jobs N``), a machine-readable ``pause_report.json``
and an ASCII report.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

from repro.heap.header import context_site
from repro.metrics.report import render_table
from repro.telemetry import Histogram, Telemetry
from repro.telemetry.flightrec import DEFAULT_CAPACITY, FlightRecorder

#: report schema identity (bump on breaking layout changes)
REPORT_SCHEMA = "rolp-bench/pause-report/v1"

#: contributors listed per run in the report
TOP_CONTRIBUTORS = 10

#: warmup discard of every explain run, matching the Figure 8/9 pause study
DISCARD_FRACTION = 0.50


# ------------------------------------------------------------------ the cell

def _register_cell() -> None:
    """Register the ``explain_run`` cell kind.

    Deferred into a function called at import so this module can be
    imported by :mod:`repro.bench.cli` (whose import is what
    ``_ensure_kinds`` guarantees on pool workers) without a circular
    import at module-load time.
    """
    from repro.bench.runner import cell_kind, shared_seed_scope
    from repro.bench.workload_registry import run_big_workload

    @cell_kind(
        "explain_run",
        track=lambda p: "explain/%s/%s" % (p["workload"], p["collector"]),
        # the collector is the treatment: every collector replays the
        # identical operation stream, like the Figure 8/9 pause cells
        seed_scope=shared_seed_scope("explain_run", "collector"),
    )
    def _explain_cell(
        seed,
        telemetry,
        workload,
        collector,
        operations,
        discard_fraction,
        capacity,
    ):
        """One recorded (workload, collector) run.

        The cell builds its *own* flight recorder rather than using the
        session telemetry: pool workers run with ``telemetry=None``, so
        anything the report needs must come back in the cell result for
        ``--jobs N`` to stay byte-identical to serial.
        """
        recorder = FlightRecorder(capacity=capacity)
        tracer = recorder.tracer("%s/%s" % (workload, collector))
        metrics = telemetry.metrics if telemetry is not None else None
        result, _ = run_big_workload(
            workload,
            collector,
            operations=operations,
            seed=seed,
            telemetry=Telemetry(tracer, metrics),
        )
        cutoff_ns = result.elapsed_ms * 1e6 * discard_fraction
        pauses = []
        for event in recorder.events():
            if event.category != "gc" or event.phase != "X":
                continue
            if event.ts_ns < cutoff_ns:
                continue
            pauses.append(
                {
                    "span_id": event.span_id,
                    "kind": event.name.split("/", 1)[-1],
                    "start_ns": event.ts_ns,
                    "duration_ms": event.dur_ns / 1e6,
                    "bytes_copied": event.args.get("bytes_copied", 0),
                    "contributions": [
                        list(row) for row in event.args.get("contributions", [])
                    ],
                }
            )
        return {
            "workload": workload,
            "collector": collector,
            "operations": operations,
            "discard_fraction": discard_fraction,
            "pauses": pauses,
            "recorder": recorder.counters(),
        }


_register_cell()


# ------------------------------------------------------------- report building

def _tail_count(n: int, percentile: float) -> int:
    """How many of ``n`` pauses form the top-``percentile`` tail."""
    return max(1, int(math.ceil(n * (100.0 - percentile) / 100.0)))


def _attribute(pauses: Sequence[dict]) -> Tuple[Dict[Tuple[int, int], float], float, float]:
    """Decompose the given pauses' durations over their contributions.

    Returns ``(attributed_ms by (context, age), attributed total ms,
    duration total ms)``.  A pause's time splits pro-rata by bytes; a
    pause that copied nothing (e.g. a CMS initial-mark) stays
    unattributed and only widens the denominator.
    """
    shares: Dict[Tuple[int, int], float] = {}
    attributed = 0.0
    total = 0.0
    for pause in pauses:
        duration = pause["duration_ms"]
        total += duration
        rows = pause["contributions"]
        bytes_sum = sum(row[2] for row in rows)
        if bytes_sum <= 0:
            continue
        for context, age, size in rows:
            key = (context, age)
            share = duration * size / bytes_sum
            shares[key] = shares.get(key, 0.0) + share
            attributed += share
    return shares, attributed, total


def summarize_run(row: dict, trace_id: str = "") -> dict:
    """The per-run section of the report, from one ``explain_run`` result."""
    pauses = row["pauses"]
    histogram = Histogram("pause_ms")
    for pause in pauses:
        histogram.observe(pause["duration_ms"])
    # deterministic tail ranking: duration desc, then start asc
    ranked = sorted(pauses, key=lambda p: (-p["duration_ms"], p["start_ns"]))
    tail = ranked[: _tail_count(len(ranked), 99.9)] if ranked else []
    tail_shares, tail_attributed, tail_total = _attribute(tail)
    all_shares, _all_attributed, all_total = _attribute(pauses)
    contributors = []
    for (context, age), attributed_ms in sorted(
        tail_shares.items(), key=lambda kv: (-kv[1], kv[0])
    )[:TOP_CONTRIBUTORS]:
        tail_share = attributed_ms / tail_total if tail_total else 0.0
        overall_share = (
            all_shares.get((context, age), 0.0) / all_total if all_total else 0.0
        )
        contributors.append(
            {
                "context": "0x%08x" % context if context >= 0 else "(other)",
                "site_id": context_site(context) if context >= 0 else None,
                "age_class": age if age >= 0 else None,
                "attributed_ms": round(attributed_ms, 6),
                "tail_share": round(tail_share, 6),
                "overall_share": round(overall_share, 6),
                # the p99.9-vs-p50 differential: how much more of the
                # tail this pair owns compared to its everyday share
                "differential": round(tail_share - overall_share, 6),
                "trace_id": trace_id,
            }
        )
    return {
        "workload": row["workload"],
        "collector": row["collector"],
        "trace_id": trace_id,
        "operations": row["operations"],
        "pauses": len(pauses),
        "p50_ms": round(histogram.percentile(50.0), 6),
        "p99_ms": round(histogram.percentile(99.0), 6),
        "p999_ms": round(histogram.percentile(99.9), 6),
        "tail": {
            "count": len(tail),
            "total_ms": round(tail_total, 6),
            "attributed_ms": round(tail_attributed, 6),
            "attributed_fraction": round(
                tail_attributed / tail_total if tail_total else 0.0, 6
            ),
        },
        "contributors": contributors,
        "recorder": row["recorder"],
    }


def build_report(rows: Sequence[dict], trace_ids: Sequence[str], scale: float) -> dict:
    """The full machine-readable report for a grid of explain runs."""
    runs = [
        summarize_run(row, trace_id) for row, trace_id in zip(rows, trace_ids)
    ]
    runs.sort(key=lambda r: (r["workload"], r["collector"]))
    return {
        "schema": REPORT_SCHEMA,
        "scale": scale,
        "runs": runs,
    }


def render_report(report: dict) -> str:
    """ASCII rendering of :func:`build_report`'s output."""
    parts: List[str] = []
    for run in report["runs"]:
        tail = run["tail"]
        parts.append(
            "%s / %s  (trace %s): %d pauses, p50 %.3f ms, p99 %.3f ms, "
            "p99.9 %.3f ms; tail %.1f%% attributed"
            % (
                run["workload"],
                run["collector"],
                run["trace_id"] or "-",
                run["pauses"],
                run["p50_ms"],
                run["p99_ms"],
                run["p999_ms"],
                100.0 * tail["attributed_fraction"],
            )
        )
        rows = [
            [
                c["context"],
                "-" if c["site_id"] is None else c["site_id"],
                "-" if c["age_class"] is None else c["age_class"],
                "%.3f" % c["attributed_ms"],
                "%.1f%%" % (100.0 * c["tail_share"]),
                "%+.1f%%" % (100.0 * c["differential"]),
            ]
            for c in run["contributors"]
        ]
        if rows:
            parts.append(
                render_table(
                    ["context", "site", "age", "tail ms", "tail share", "vs overall"],
                    rows,
                )
            )
        else:
            parts.append("  (no attributable copying pauses in the tail)")
        parts.append("")
    return "\n".join(parts)


# ------------------------------------------------------------------ the driver

def explain_cells(
    workload_names: Optional[Sequence[str]] = None,
    collectors: Optional[Sequence[str]] = None,
    capacity: Optional[int] = None,
):
    """The (workload x collector) grid of ``explain_run`` cells."""
    from repro.bench.figures import PAUSE_FIGURE_COLLECTORS
    from repro.bench.runner import make_cell
    from repro.bench.workload_registry import BIG_WORKLOADS, big_workload_ops

    capacity = capacity or DEFAULT_CAPACITY
    names = list(workload_names or sorted(BIG_WORKLOADS))
    chosen = list(collectors or PAUSE_FIGURE_COLLECTORS)
    cells = [
        make_cell(
            "explain_run",
            workload=name,
            collector=collector,
            operations=big_workload_ops(name),
            discard_fraction=DISCARD_FRACTION,
            capacity=capacity,
        )
        for name in names
        for collector in chosen
    ]
    return cells


def explain(
    workload_names: Optional[Sequence[str]] = None,
    collectors: Optional[Sequence[str]] = None,
    capacity: Optional[int] = None,
    runner=None,
) -> dict:
    """Run the explain grid and build the report."""
    from repro.bench.config import bench_scale

    cells = explain_cells(workload_names, collectors, capacity)
    if runner is None:
        from repro.bench.runner import Runner

        runner = Runner()
    rows = runner.run(cells)
    trace_ids = [runner.trace_ids[cell.key] for cell in cells]
    return build_report(rows, trace_ids, bench_scale())
