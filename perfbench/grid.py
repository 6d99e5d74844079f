"""One grid pass in a fresh process (started by ``run.py``).

    PYTHONPATH=src python3 perfbench/grid.py --workload dacapo-grid \\
        --seed 7 --launched <time.monotonic() at spawn> --out pass.json

The pass runs the workload's experiment calls serially on one
:class:`repro.bench.runner.Runner` and writes its timings, the SHA-256
digest of every experiment's ``artifacts.*_payload`` JSON and the
runner counters to ``--out``.  With ``--cache-dir`` the runner writes a
cache there, and an untimed warm replay on a new runner reads it back.
``--probe`` stops where the first cell would start (the set-up
measurement); ``--trace-out`` runs the pass under :class:`tracing.Tracing`
and adds the per-layer totals.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import common
import plans


class _Progress:
    """Stands in for ``sys.stderr``: forwards the runner's progress lines
    and ends a :class:`common.Pacer` segment at each ``[runner] (i/n)
    ...`` line as it is written, so a cell's time is the gap to the line
    before it.  Without a pacer it only forwards."""

    def __init__(self, stream) -> None:
        self.stream = stream
        self.pacer = None
        self.cells = []
        self._partial = ""

    def write(self, text: str) -> int:
        self._partial += text
        while "\n" in self._partial:
            line, self._partial = self._partial.split("\n", 1)
            if line.startswith("[runner] (") and self.pacer is not None:
                self.cells.append(self.pacer.mark())
        return self.stream.write(text)

    def flush(self) -> None:
        self.stream.flush()


def _run(experiments, runner, progress=None, scale=True):
    """Run every experiment; returns ``(digests, segments, cells)``: the
    ``(raw, reference)`` seconds of every segment of the phase, and of
    its cells.  A cell's segment starts where the one before it ended
    (the experiment's start for its first cell); the segment after an
    experiment's last cell is its rendering."""
    digests = {}
    segments = []
    if progress is not None:
        progress.pacer = common.Pacer(scale=scale)
        progress.cells = []
    try:
        for experiment in experiments:
            for name, payload in experiment(runner):
                digests[name] = common.digest(payload)
            if progress is not None:
                segments.append(progress.pacer.mark())
    finally:
        if progress is not None:
            progress.pacer.stop()
            progress.pacer = None
    if progress is None:
        return digests, [], []
    return digests, segments + progress.cells, progress.cells


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=plans.GRIDS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--launched", type=float, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--size", default="full", choices=plans.SIZES)
    parser.add_argument("--cache-dir")
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--trace-out")
    args = parser.parse_args(argv)

    from repro.bench import cli  # noqa: F401  (what rolp-bench imports)
    from repro.bench.config import bench_scale
    from repro.bench.runner import ResultCache, Runner
    from repro.fastpath import backend

    experiments = plans.grid_experiments(args.workload, args.size)
    tracing = None
    if args.trace_out:
        from tracing import Tracing

        tracing = Tracing()
        tracing.install()
    cache = ResultCache(args.cache_dir) if args.cache_dir else None
    runner = Runner(jobs=1, cache=cache, base_seed=args.seed, progress=True)
    record = {
        "setup_s": time.monotonic() - args.launched,
        "backend": backend(),
        "scale": bench_scale(),
    }
    if args.probe:
        with open(args.out, "w") as handle:
            json.dump(record, handle)
        return 0

    progress = _Progress(sys.stderr)
    sys.stderr = progress
    if tracing is not None:
        tracing.start_sampler()
    digests, segments, cells = _run(experiments, runner, progress, scale=tracing is None)
    if tracing is not None:
        tracing.stop_sampler()
        record["layers"] = tracing.layer_metrics()
        tracing.reset()
    record.update(
        digests=digests,
        raw_wall_s=sum(raw for raw, _ in segments),
        wall_s=sum(scaled for _, scaled in segments),
        raw_cell_s=[raw for raw, _ in cells],
        cell_s=[scaled for _, scaled in cells],
        runner=runner.stats.as_dict(),
    )

    if cache is not None:
        replay = Runner(jobs=1, cache=ResultCache(args.cache_dir), base_seed=args.seed)
        record["replay_digests"], _, _ = _run(experiments, replay)
        record["replay_runner"] = replay.stats.as_dict()
    if tracing is not None:
        record["layers"].update(tracing.cache_load_metrics())
        tracing.uninstall()
        tracing.write_chrome(args.trace_out)
    sys.stderr = progress.stream
    with open(args.out, "w") as handle:
        json.dump(record, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
