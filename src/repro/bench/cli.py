"""Command-line entry point: regenerate any table or figure.

Usage::

    rolp-bench table1
    rolp-bench fig8 --workloads cassandra-wi lucene
    ROLP_BENCH_SCALE=0.2 rolp-bench all

Parallelism and caching (see docs/benchmarking.md)::

    rolp-bench fig8 --jobs 4              # fan the grid out over 4 workers
    rolp-bench all --cache-dir cache/     # cache each cell's result
    rolp-bench all --resume               # continue an interrupted grid
    rolp-bench fig8 --no-cache            # force every simulation to run

Every experiment expands into independent (workload x collector x
config) *cells* with deterministic per-cell seeds, so ``--jobs N``
output is byte-identical to the serial run, interrupted grids resume
from the cells already cached, and a warm-cache re-run performs zero
simulations.

Telemetry and machine-readable artifacts::

    rolp-bench fig8 --trace-out trace.json --metrics-out metrics.json
    rolp-bench trace --workloads cassandra-wi --collectors g1 rolp
    rolp-bench all --json-dir out/

``--trace-out`` captures every run as a Chrome ``trace_event`` file
(load it in chrome://tracing or https://ui.perfetto.dev); ``--metrics-out``
writes one JSON document with the experiment payloads plus the full
metrics-registry dump; ``--json-dir`` writes one JSON file per
experiment.  Per-run trace tracks are recorded on the serial path only
(``--jobs 1``); cached cells record no new events.

Invariant verification (see docs/verification.md)::

    rolp-bench fig6 --verify              # full checking (level 2)
    rolp-bench table1 --verify 1          # heap walks only

``--verify`` runs the sanitizer suite inside every simulation; a
violation aborts with exit status 3 and a structured error naming the
broken rule and the offending region/object/thread.  Verified and
unverified runs never share cache entries.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Dict, List, Optional

from repro import COLLECTOR_NAMES
from repro.analysis import InvariantViolation, set_default_verify_level
from repro.analysis import pause_attribution
from repro.bench import ablations, artifacts, figures, fuzz, perf, tables
from repro.bench.config import bench_scale
from repro.bench.runner import (
    DEFAULT_BASE_SEED,
    ResultCache,
    Runner,
    cell_kind,
    make_cell,
    run_cells,
    shared_seed_scope,
)
from repro.bench.workload_registry import (
    BIG_WORKLOADS,
    all_workload_names,
    big_workload_ops,
    run_summary,
)
from repro.metrics.report import render_table
from repro.telemetry import (
    FLIGHT_RECORDER_DEFAULT_CAPACITY,
    FlightRecorder,
    TelemetrySession,
)
from repro.workloads.dacapo import SPEC_BY_NAME

#: default on-disk cell cache (override with --cache-dir or the
#: ROLP_BENCH_CACHE_DIR environment variable; disable with --no-cache)
DEFAULT_CACHE_DIR = ".rolp-bench-cache"

#: the experiments that write a report, and where unless --report-out
DEFAULT_REPORTS = {
    "explain": "pause_report.json",
    "fuzz": "pause_report.json",
    "staticcheck": "staticcheck_report.json",
}

#: the six ablation studies, in print order
ABLATIONS = (
    (
        "survivor_tracking",
        ablations.ablation_survivor_tracking,
        "[Ablation] survivor-tracking shutdown (Section 7.4)",
    ),
    (
        "package_filters",
        ablations.ablation_package_filters,
        "[Ablation] package filters (Section 7.3)",
    ),
    (
        "generations",
        ablations.ablation_generations,
        "[Ablation] 16 generations vs binary pretenuring (Section 9)",
    ),
    (
        "increment_loss",
        ablations.ablation_increment_loss,
        "[Ablation] unsynchronized OLD-table increment loss (Section 7.6)",
    ),
    (
        "allocation_sampling",
        ablations.ablation_allocation_sampling,
        "[Ablation] allocation sampling (Section 8.5 extension)",
    ),
    (
        "offline_profile",
        ablations.ablation_offline_profile,
        "[Ablation] offline (POLM2-style) vs online profiling (Section 10)",
    ),
)


class UnknownNamesError(Exception):
    """A ``--workloads``/``--benchmarks``/``--collectors`` name that the
    registry does not know."""

    def __init__(self, kind: str, unknown: List[str], valid: List[str]) -> None:
        self.kind = kind
        self.unknown = unknown
        self.valid = valid
        super().__init__(
            "unknown %s %s (choose from: %s)"
            % (kind, ", ".join(sorted(unknown)), ", ".join(valid))
        )


def _positive_int(text: str) -> int:
    """argparse type for a count that must be at least 1."""
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError("must be at least 1 (got %s)" % text)
    return value


def _validate(kind: str, names: Optional[List[str]], valid: List[str]) -> None:
    if not names:
        return
    unknown = [n for n in names if n not in valid]
    if unknown:
        raise UnknownNamesError(kind, unknown, valid)


def _specs(names: Optional[List[str]]):
    if not names:
        return None
    _validate("benchmark", names, sorted(SPEC_BY_NAME))
    return [SPEC_BY_NAME[n] for n in names]


def _check_workloads(names: Optional[List[str]]) -> Optional[List[str]]:
    _validate("workload", names, all_workload_names())
    return names


def _check_collectors(names: Optional[List[str]]) -> Optional[List[str]]:
    _validate("collector", names, list(COLLECTOR_NAMES))
    return names


@cell_kind(
    "trace_run",
    track=lambda p: "%s/%s" % (p["workload"], p["collector"]),
    seed_scope=shared_seed_scope("trace_run", "collector"),
)
def _trace_cell(seed, telemetry, workload, collector, operations):
    return run_summary(workload, collector, operations, seed, telemetry)


def _trace_experiment(
    workload_names: Optional[List[str]],
    collectors: Optional[List[str]],
    runner: Optional[Runner] = None,
) -> List[Dict[str, object]]:
    """The ``trace`` experiment: run every workload under every
    collector with telemetry attached, returning one summary row per
    run."""
    cells = [
        make_cell(
            "trace_run",
            workload=name,
            collector=collector,
            operations=big_workload_ops(name),
        )
        for name in workload_names or sorted(BIG_WORKLOADS)
        for collector in collectors or COLLECTOR_NAMES
    ]
    return run_cells(cells, runner)


def render_trace_summary(rows: List[Dict[str, object]]) -> str:
    return render_table(
        ["workload", "collector", "ops", "pauses", "pause ms", "cycles", "max MB"],
        [
            [
                row["workload"],
                row["collector"],
                row["operations"],
                row["pause_count"],
                "%.1f" % row["total_pause_ms"],
                row["gc_cycles"],
                "%.1f" % (row["max_memory_bytes"] / (1 << 20)),
            ]
            for row in rows
        ],
    )


def _run_experiments(
    todo: List[str],
    runner: Runner,
    payloads: Dict[str, object],
    workloads: Optional[List[str]],
    collectors: Optional[List[str]],
    specs,
    explain_capacity: Optional[int] = None,
    perf_repeat: int = 1,
    fuzz_budget: str = "32",
    corpus_dir: str = fuzz.DEFAULT_CORPUS_DIR,
) -> None:
    """Run each experiment in ``todo``, printing its rendering and
    filling ``payloads`` (split out of :func:`main` so the verification
    scope wraps exactly the simulations)."""
    pause_studies = None  # memoized: fig8 and fig9 share the same runs
    for experiment in todo:
        print("=" * 72)
        if experiment == "table1":
            rows = tables.table1(workloads, runner=runner)
            payloads["table1"] = artifacts.table1_payload(rows)
            print("[Table 1] Big Data benchmark profiling summary")
            print(tables.render_table1(rows))
        elif experiment == "table2":
            rows = tables.table2(specs, runner=runner)
            payloads["table2"] = artifacts.table2_payload(rows)
            print("[Table 2] DaCapo profiling and conflicts")
            print(tables.render_table2(rows))
        elif experiment == "fig6":
            series = figures.figure6(specs, runner=runner)
            payloads["fig6"] = artifacts.figure6_payload(series)
            print("[Figure 6] DaCapo execution time normalized to G1")
            print(figures.render_figure6(series))
        elif experiment == "fig7":
            series = figures.figure7(specs, runner=runner)
            payloads["fig7"] = artifacts.figure7_payload(series)
            print("[Figure 7] Worst-case conflict resolution time (ms)")
            print(figures.render_figure7(series))
        elif experiment in ("fig8", "fig9"):
            if pause_studies is None:
                pause_studies = figures.pause_study(workloads, runner=runner)
            payloads[experiment] = artifacts.pause_study_payload(pause_studies)
            if experiment == "fig8":
                print(figures.render_figure8(pause_studies))
            else:
                print(figures.render_figure9(pause_studies))
        elif experiment == "fig10":
            study = figures.figure10(runner=runner)
            payloads["fig10"] = artifacts.figure10_payload(study)
            print(figures.render_figure10(study))
        elif experiment == "ablations":
            ablation_payloads: Dict[str, object] = {}
            for key, run, title in ABLATIONS:
                results = run(runner=runner)
                ablation_payloads[key] = artifacts.ablation_payload(results)
                print(ablations.render_ablation(results, title))
            payloads["ablations"] = ablation_payloads
        elif experiment == "trace":
            rows = _trace_experiment(workloads, collectors, runner=runner)
            payloads["trace"] = artifacts.trace_payload(rows)
            print("[Trace] per-run summary (full trace via --trace-out)")
            print(render_trace_summary(rows))
        elif experiment == "explain":
            report = pause_attribution.explain(
                workloads,
                collectors,
                capacity=explain_capacity,
                runner=runner,
            )
            payloads["explain"] = report
            print("[Explain] per-pause root-cause attribution (tail vs overall)")
            print(pause_attribution.render_report(report))
        elif experiment == "perf":
            study = perf.perf(base_seed=runner.base_seed, repeat=perf_repeat)
            payloads["perf"] = study
            print("[Perf] hot-path microbenchmarks across execution backends")
            print(perf.render_perf(study))
            os.makedirs(os.path.dirname(perf.BENCH_JSON), exist_ok=True)
            artifacts.write_json(perf.BENCH_JSON, study)
            print("perf results written to %s" % perf.BENCH_JSON)
        elif experiment == "fuzz":
            report = fuzz.fuzz(
                runner,
                budget=fuzz_budget,
                corpus_dir=corpus_dir,
                progress=lambda msg: print("[fuzz] %s" % msg, file=sys.stderr),
            )
            payloads["fuzz"] = report
            print("[Fuzz] adversarial demography search (oracle: sanitizers + diff)")
            print(fuzz.render_fuzz_report(report))
        elif experiment == "staticcheck":
            from repro.analysis import staticcheck

            report = staticcheck.run_staticcheck(workloads, corpus_dir=corpus_dir)
            payloads["staticcheck"] = report
            print("[StaticCheck] ahead-of-time context-conflict analyzer")
            print(staticcheck.render_report(report))


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="rolp-bench",
        description="Regenerate the ROLP paper's tables and figures.",
    )
    parser.add_argument(
        "experiment",
        choices=[
            "table1",
            "table2",
            "fig6",
            "fig7",
            "fig8",
            "fig9",
            "fig10",
            "ablations",
            "trace",
            "explain",
            "perf",
            "fuzz",
            "staticcheck",
            "serve",
            "all",
        ],
    )
    parser.add_argument(
        "--host",
        default="127.0.0.1",
        help="serve only: bind address (default: %(default)s)",
    )
    parser.add_argument(
        "--port",
        type=int,
        default=8413,
        metavar="N",
        help="serve only: TCP port, 0 picks an ephemeral one (default: %(default)s)",
    )
    parser.add_argument(
        "--queue-limit",
        type=int,
        default=64,
        metavar="N",
        help="serve only: admission-queue capacity; a full queue answers "
        "429 + Retry-After (default: %(default)s)",
    )
    parser.add_argument(
        "--max-batch",
        type=int,
        default=16,
        metavar="N",
        help="serve only: jobs coalesced per runner batch (default: %(default)s)",
    )
    parser.add_argument(
        "--request-timeout",
        type=float,
        default=60.0,
        metavar="S",
        help="serve only: per-request deadline in seconds; expiry answers "
        "504 without cancelling the admitted job (default: %(default)s)",
    )
    parser.add_argument(
        "--idle-timeout",
        type=float,
        default=600.0,
        metavar="S",
        help="serve only: sessions idle past this are reaped (default: %(default)s)",
    )
    parser.add_argument(
        "--workloads",
        nargs="*",
        help="restrict large-scale experiments to these workloads",
    )
    parser.add_argument(
        "--benchmarks",
        nargs="*",
        help="restrict DaCapo experiments to these benchmarks",
    )
    parser.add_argument(
        "--collectors",
        nargs="*",
        help="restrict the trace experiment to these collectors",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="fan simulation cells out across N worker processes "
        "(results are byte-identical to --jobs 1)",
    )
    parser.add_argument(
        "--cache-dir",
        metavar="DIR",
        default=os.environ.get("ROLP_BENCH_CACHE_DIR", DEFAULT_CACHE_DIR),
        help="directory for the per-cell result cache (default: "
        "$ROLP_BENCH_CACHE_DIR or %s)" % DEFAULT_CACHE_DIR,
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="neither read nor write the result cache",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="continue an interrupted grid: like the default cached run, "
        "but fails fast if the cache directory does not exist yet",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=DEFAULT_BASE_SEED,
        metavar="N",
        help="base seed; every cell derives its own seed from "
        "(cell key, base seed) (default: %d)" % DEFAULT_BASE_SEED,
    )
    parser.add_argument(
        "--verify",
        nargs="?",
        const=2,
        default=0,
        type=int,
        choices=(0, 1, 2),
        help="run invariant verification inside every simulation: 1 walks "
        "the heap at GC boundaries, 2 adds the biased-lock discipline "
        "checker (bare --verify means 2); a violation exits with status 3",
    )
    parser.add_argument(
        "--repeat",
        type=int,
        default=1,
        metavar="N",
        help="perf experiment only: re-time each (kernel, backend) cell "
        "N times (fresh fixture per run) and report the median ns/op "
        "plus the coefficient of variation (default: 1)",
    )
    parser.add_argument(
        "--trace-out",
        metavar="PATH",
        help="write a Chrome trace_event JSON covering every run",
    )
    parser.add_argument(
        "--metrics-out",
        metavar="PATH",
        help="write experiment payloads + metrics registry as one JSON document",
    )
    parser.add_argument(
        "--json-dir",
        metavar="DIR",
        help="write one machine-readable JSON file per experiment",
    )
    parser.add_argument(
        "--flight-recorder",
        nargs="?",
        const=FLIGHT_RECORDER_DEFAULT_CAPACITY,
        default=None,
        type=_positive_int,
        metavar="N",
        help="enable the bounded always-on flight recorder, keeping at "
        "most N events (bare flag: %(const)s)",
    )
    parser.add_argument(
        "--flight-out",
        metavar="PATH",
        help="dump the flight recording (JSONL) here at exit — and, on "
        "an invariant violation, before aborting",
    )
    parser.add_argument(
        "--report-out",
        metavar="PATH",
        help="where the explain experiment writes its pause report, "
        "the fuzz experiment writes its search report, and the "
        "staticcheck experiment writes its analysis report "
        "(default: pause_report.json for explain and fuzz, "
        "staticcheck_report.json for staticcheck)",
    )
    parser.add_argument(
        "--budget",
        metavar="N|Ns",
        default="32",
        help="fuzz experiment only: search budget, either an evaluation "
        "count (e.g. 64 — deterministic, byte-identical across --jobs) "
        "or a time box (e.g. 120s) (default: %(default)s)",
    )
    parser.add_argument(
        "--corpus-dir",
        metavar="DIR",
        default=fuzz.DEFAULT_CORPUS_DIR,
        help="fuzz experiment only: where shrunk findings are banked as "
        "replayable regression-corpus entries (default: %(default)s)",
    )
    args = parser.parse_args(argv)
    report_out = None  # experiments without a report ignore --report-out
    if args.experiment in DEFAULT_REPORTS:
        report_out = args.report_out or DEFAULT_REPORTS[args.experiment]

    # Fail fast on unwritable output paths — before hours of runs.
    for path in (args.trace_out, args.metrics_out, args.flight_out, report_out):
        if path:
            parent = os.path.dirname(path) or "."
            if not os.path.isdir(parent):
                print(
                    "rolp-bench: cannot write %s (no such directory: %s)"
                    % (path, parent),
                    file=sys.stderr,
                )
                return 2

    if args.resume and args.no_cache:
        print("rolp-bench: --resume conflicts with --no-cache", file=sys.stderr)
        return 2
    if args.resume and not os.path.isdir(args.cache_dir):
        print(
            "rolp-bench: --resume but no cache directory at %s" % args.cache_dir,
            file=sys.stderr,
        )
        return 2

    if args.experiment == "serve":
        # simulation-as-a-service: sessions over HTTP/JSON, jobs
        # coalesced into runner cells, results byte-identical to this
        # CLI (docs/server.md)
        from repro.server import ServerApp, serve_main

        serve_runner = Runner(
            jobs=args.jobs,
            cache=None if args.no_cache else ResultCache(args.cache_dir),
            base_seed=args.seed,
        )
        app = ServerApp(
            runner=serve_runner,
            queue_limit=args.queue_limit,
            max_batch=args.max_batch,
            request_timeout_s=args.request_timeout or None,
            idle_timeout_s=args.idle_timeout,
        )
        return serve_main(
            args.host,
            args.port,
            app,
            reap_interval_s=max(1.0, args.idle_timeout / 4),
        )

    todo = (
        ["table1", "table2", "fig6", "fig7", "fig8", "fig9", "fig10", "ablations"]
        if args.experiment == "all"
        else [args.experiment]
    )

    recorder = (
        FlightRecorder(args.flight_recorder) if args.flight_recorder is not None else None
    )

    session: Optional[TelemetrySession] = None
    wants_trace = bool(
        args.trace_out or args.metrics_out or "trace" in todo or "explain" in todo
    )
    if wants_trace or recorder is not None:
        # With only the recorder on, the unbounded sink never collects:
        # bounded always-on recording stays bounded.
        session = TelemetrySession(flight_recorder=recorder, record_trace=wants_trace)

    runner = Runner(
        jobs=args.jobs,
        cache=None if args.no_cache else ResultCache(args.cache_dir),
        base_seed=args.seed,
        session=session,
        progress=True,
    )

    payloads: Dict[str, object] = {}

    try:
        specs = _specs(args.benchmarks)
        workloads = _check_workloads(args.workloads)
        collectors = _check_collectors(args.collectors)
    except UnknownNamesError as exc:
        print("rolp-bench: %s" % exc, file=sys.stderr)
        return 2

    # Ambient rather than per-cell so cell keys and derived seeds stay
    # identical to unverified runs (results remain comparable with the
    # goldens); the cache still separates on it via key_material.
    previous_verify = set_default_verify_level(args.verify)
    try:
        _run_experiments(
            todo,
            runner,
            payloads,
            workloads,
            collectors,
            specs,
            explain_capacity=args.flight_recorder,
            perf_repeat=max(1, args.repeat),
            fuzz_budget=args.budget,
            corpus_dir=args.corpus_dir,
        )
    except InvariantViolation as exc:
        print("rolp-bench: invariant violation: %s" % exc, file=sys.stderr)
        if recorder is not None:
            # Dump-on-violation: the recording leading up to the trip is
            # exactly what a bounded flight recorder exists to preserve.
            dump_path = args.flight_out or "rolp-violation.jfr.jsonl"
            recorder.dump(dump_path)
            print(
                "rolp-bench: flight recording dumped to %s" % dump_path,
                file=sys.stderr,
            )
        return 3
    finally:
        set_default_verify_level(previous_verify)

    if args.verify:
        print(
            "[verify] level %d: all invariant checks passed (0 violations)"
            % args.verify,
            file=sys.stderr,
        )

    stats = runner.stats
    print(
        "[runner] cells: %d | cache hits: %d | misses: %d | "
        "simulations executed: %d | jobs: %d | %.1fs"
        % (
            stats.cells,
            stats.cache_hits,
            stats.cache_misses,
            stats.simulations,
            runner.jobs,
            stats.elapsed_s,
        ),
        file=sys.stderr,
    )

    if args.trace_out and session is not None:
        session.write_trace(args.trace_out)
        print("trace written to %s" % args.trace_out)
    if args.flight_out and recorder is not None:
        recorder.dump(args.flight_out)
        print("flight recording written to %s" % args.flight_out)
    if "explain" in payloads:
        artifacts.write_json(report_out, payloads["explain"])
        print("pause report written to %s" % report_out)
    if "fuzz" in payloads:
        artifacts.write_json(report_out, payloads["fuzz"])
        print("fuzz report written to %s" % report_out)
        failure_rules = fuzz.report_failure_rules(payloads["fuzz"])
        if failure_rules:
            print(
                "rolp-bench: fuzz findings require attention: %s"
                % ", ".join(failure_rules),
                file=sys.stderr,
            )
            return 3
    if "staticcheck" in payloads:
        artifacts.write_json(report_out, payloads["staticcheck"])
        print("staticcheck report written to %s" % report_out)
    if args.metrics_out:
        artifacts.write_json(
            args.metrics_out,
            {
                "schema": artifacts.SCHEMA,
                "scale": bench_scale(),
                "experiments": payloads,
                "runner": stats.as_dict(),
                "trace_ids": runner.trace_ids,
                "telemetry": (
                    session.telemetry_counters() if session is not None else None
                ),
                "metrics": session.metrics.to_json() if session is not None else {},
            },
        )
        print("metrics written to %s" % args.metrics_out)
    if args.json_dir:
        os.makedirs(args.json_dir, exist_ok=True)
        for experiment, payload in payloads.items():
            path = os.path.join(args.json_dir, "%s.json" % experiment)
            artifacts.write_json(
                path,
                {
                    "schema": artifacts.SCHEMA,
                    "scale": bench_scale(),
                    "trace_ids": runner.trace_ids,
                    experiment: payload,
                },
            )
        print("per-experiment JSON written to %s" % args.json_dir)
    return 0


if __name__ == "__main__":
    sys.exit(main())
