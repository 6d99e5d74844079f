"""The repository's benchmark: run one workload once and print its metrics.

    python3 perfbench/run.py --workload dacapo-grid --seed 3 --seconds 30 --trace 0

Run it from the repository root.  Workloads: ``dacapo-grid``,
``bigdata-grid``, ``serve-sessions`` (README.md says why each exists).
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics of a separate traced
pass with ``--trace 1``.  The line before it carries the provenance
stamp.  The full record (provenance, digests, details) is written to
``.perfbench/results/``; traced runs also write a Chrome trace to
``.perfbench/traces/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import common
import plans

_PASS_TIMEOUT_S = 170.0


def _grid_pass(args, root, workdir, env, index, probe=False, trace_out=None):
    """Spawn one ``grid.py`` child and return its record plus its RSS."""
    out = os.path.join(workdir, "pass-%d.json" % index)
    argv = [
        sys.executable, os.path.join(common.HERE, "grid.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--size", args.size,
        "--out", out,
    ]
    if probe:
        argv.append("--probe")
    elif args.workload == "bigdata-grid":
        # a fresh cache dir per pass: every pass is a first `rolp-bench all`
        argv += ["--cache-dir", os.path.join(workdir, "cache-%d" % index)]
    if trace_out:
        argv += ["--trace-out", trace_out]
    log = os.path.join(workdir, "pass-%d.log" % index)
    argv += ["--launched", repr(time.monotonic())]
    proc = common.spawn(argv, root, env, log)
    code, rss = common.reap(proc, _PASS_TIMEOUT_S)
    if code != 0:
        with open(log, errors="replace") as handle:
            tail = handle.read()[-2000:]
        raise RuntimeError("grid pass exited with %d:\n%s" % (code, tail))
    with open(out) as handle:
        record = json.load(handle)
    record["rss_mb"] = rss
    return record


def _check_grid(passes, recorded):
    """Digest checks: every pass equals the first, the recorded digests
    (when this seed has them) and its own warm replay."""
    attempted = failed = 0
    errors = []
    want = recorded or passes[0]["digests"]
    for number, record in enumerate(passes):
        for label, got in (("pass %d" % number, record["digests"]),
                           ("warm replay %d" % number, record.get("replay_digests"))):
            if got is None:
                continue
            bad = common.mismatches(got, want)
            attempted += len(want)
            failed += len(bad)
            if bad:
                errors.append("%s: first diverging experiment %s" % (label, bad[0]))
    return attempted, failed, errors


def run_grid(args, root, workdir, env):
    recorded = _recorded_digests(args.workload, args.seed, args.size)
    setups = []
    for n in range(0 if args.trace else plans.SETUP_PROBES):
        before = common.reference_s()
        raw = _grid_pass(args, root, workdir, env, -1 - n, probe=True)["setup_s"]
        setups.append(common.rescale(raw, before, common.reference_s()))
    passes = []
    started = time.monotonic()
    while True:
        passes.append(_grid_pass(args, root, workdir, env, len(passes)))
        elapsed = time.monotonic() - started
        if args.trace or elapsed * (len(passes) + 1) / len(passes) > args.seconds:
            break
    if args.trace:
        os.makedirs(os.path.join(root, ".perfbench", "traces"), exist_ok=True)
        trace_out = os.path.join(
            root, ".perfbench", "traces", "%s-seed%d.json" % (args.workload, args.seed)
        )
        passes.append(_grid_pass(args, root, workdir, env, len(passes), trace_out=trace_out))
    checks = _check_grid(passes, recorded)

    first = passes[0]
    tail_pct = common.tail_percentile(len(first["cell_s"]))
    details = {
        "passes": len(passes),
        "cells_per_pass": first["runner"]["cells"],
        "tail_percentile": tail_pct,
        "digests": first["digests"],
        "backend": first["backend"],
        "scale": first["scale"],
        "raw_wall_s": [r["raw_wall_s"] for r in passes],
    }
    if args.trace:
        traced = passes[-1]
        layers = dict(traced["layers"])
        runner = traced["runner"]
        layers.update(
            {
                "bench.runner.cells": runner["cells"],
                "bench.runner.memo_hits": runner["memo_hits"],
                "bench.runner.cache_hits": runner["cache_hits"],
                "bench.runner.cache_misses": runner["cache_misses"],
                "trace.overhead_ratio": traced["raw_wall_s"] / first["raw_wall_s"],
            }
        )
        return layers, checks, details
    cell_s = [s for record in passes for s in record["cell_s"]]
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(r["wall_s"] for r in passes),
        "throughput_per_s": statistics.median(r["runner"]["cells"] / r["wall_s"] for r in passes),
        "p50_ms": common.percentile(cell_s, 50) * 1e3,
        "tail_ms": common.percentile(cell_s, tail_pct) * 1e3,
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in passes),
    }
    return metrics, checks, details


def _recorded_digests(workload, seed, size):
    """Digests recorded in digests.json for this seed, if any."""
    with open(os.path.join(common.HERE, "digests.json")) as handle:
        recorded = json.load(handle)
    if size != "full" or recorded.get("scale") != plans.SCALE:
        return None
    return recorded["workloads"].get(workload, {}).get(str(seed))


# ------------------------------------------------------------- provenance

def provenance(root, backend, seed):
    """Host, backend, scale, seed and source identity of a result."""
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    cpu_model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = dirty = None
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True,
                timeout=10, check=True,
            ).stdout.strip()
            dirty = bool(subprocess.run(
                ["git", "status", "--porcelain", "--untracked-files=no"], cwd=root,
                capture_output=True, text=True, timeout=10, check=True,
            ).stdout.strip())
        except (OSError, subprocess.SubprocessError):
            commit = dirty = None
    sources = hashlib.sha256()
    src = os.path.join(root, "src", "repro")
    for folder, dirs, files in sorted(os.walk(src)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                sources.update(os.path.relpath(path, src).encode() + b"\0")
                with open(path, "rb") as handle:
                    sources.update(handle.read())
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "cpu_model": cpu_model,
        "cpu_count": os.cpu_count(),
        "backend": backend,
        "scale": plans.SCALE,
        "seed": seed,
        "git_commit": commit,
        "git_dirty": dirty,
        "src_sha256": sources.hexdigest(),
    }


# ------------------------------------------------------------------- main

def _print_trace_notes(workload, metrics):
    """Both measurements of the layers measured both ways, and the share
    of the layer each BENCH_6 kernel stands for on this workload."""
    for span, layer in (("gc.collect_young", "gc"), ("core.on_gc_survivors", "core")):
        print(
            "%-22s span busy %.3fs (self %s) | %s sampled share %.1f%%"
            % (
                span,
                metrics[span + ".busy_s"],
                "%.3fs" % metrics[span + ".self_s"] if span + ".self_s" in metrics else "-",
                layer,
                100 * metrics[layer + ".sampled_share"],
            )
        )
    for kernel, layers in plans.KERNEL_LAYERS:
        share = sum(metrics[layer + ".sampled_share"] for layer in layers)
        print(
            "kernel %-9s -> %-13s %5.1f%% of samples on %s%s"
            % (
                kernel,
                "+".join(layers),
                100 * share,
                workload,
                " (compiled row is a batch sweep: not comparable)" if kernel == "header" else "",
            )
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=plans.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=plans.SIZES, default="full",
                        help="mini: the self-tests' smallest run")
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        print("perfbench: no src/repro under %s; run from the repository root" % root,
              file=sys.stderr)
        return 2
    env = common.child_env(root, plans.SCALE)
    workdir = os.path.join(root, ".perfbench", "work-%d" % os.getpid())
    os.makedirs(workdir)
    # This process and every child share one CPU, so the reference kernel
    # always runs on the core doing the work: a shared host's cores can
    # run at different speeds at the same moment.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    try:
        if args.workload in plans.GRIDS:
            metrics, checks, details = run_grid(args, root, workdir, env)
        else:
            import serve

            sys.path.insert(0, os.path.join(root, "src"))
            os.environ["ROLP_BENCH_SCALE"] = plans.SCALE
            metrics, checks, details = serve.run(
                root, workdir, env, args.seed, args.size, bool(args.trace)
            )
            from repro.fastpath import backend

            details["backend"] = backend()
            recorded = _recorded_digests(args.workload, args.seed, args.size)
            if recorded:
                attempted, failed, errors = checks
                if recorded["load"] != details["payload_sha256"]:
                    failed += 1
                    errors.append("load-phase payloads differ from the recorded digest")
                checks = (attempted + 1, failed, errors)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted, failed, errors = checks
    table = plans.PER_LAYER if args.trace else plans.END_TO_END
    details["unlisted"] = {name: value for name, value in metrics.items() if name not in table}
    result = {
        "correct": failed == 0 and not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics.get(name, 0), "unit": spec[0]} for name, spec in table.items()
        },
    }
    stamp = provenance(root, details["backend"], args.seed)
    os.makedirs(os.path.join(root, ".perfbench", "results"), exist_ok=True)
    record_path = os.path.join(
        root, ".perfbench", "results",
        "%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace),
    )
    with open(record_path, "w") as handle:
        json.dump(
            {"workload": args.workload, "size": args.size, "provenance": stamp,
             "details": details, "errors": errors, "result": result},
            handle, indent=2, sort_keys=True,
        )
    for error in errors:
        print("perfbench: FAILED %s" % error, file=sys.stderr)
    for name, entry in result["metrics"].items():
        print("%-32s %14.6g %s" % (name, entry["value"], entry["unit"]))
    if args.trace:
        _print_trace_notes(args.workload, metrics)
    print("provenance: %s" % json.dumps(stamp, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
