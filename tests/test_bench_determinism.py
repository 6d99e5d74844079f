"""Determinism net over the parallel runner (the ISSUE's acceptance
criterion): the pause study rendered serially, with ``--jobs 4`` and
from a warm cache must be byte-identical, and the warm re-run must
perform zero simulations."""

import json

import pytest

from repro.bench import figures
from repro.bench.cli import main
from repro.bench.runner import Runner
from repro.workloads.dacapo import SPEC_BY_NAME

# two big workloads keep the full 4-collector grid (8 cells) under test
# budget while still giving the pool something to fan out
WORKLOADS = ["cassandra-wi", "graphchi-cc"]


@pytest.fixture(autouse=True)
def determinism_scale(monkeypatch):
    monkeypatch.setenv("ROLP_BENCH_SCALE", "0.05")


def rendered(capsys):
    """Stdout minus the output-path echo lines (the only lines allowed
    to differ between runs: they name run-specific tmp directories)."""
    out = capsys.readouterr().out
    return "".join(
        line
        for line in out.splitlines(keepends=True)
        if " written to " not in line
    )


def run_fig8(tmp_path, capsys, tag, extra, workloads=WORKLOADS):
    json_dir = tmp_path / tag
    argv = ["fig8", "--workloads", *workloads, "--json-dir", str(json_dir)]
    assert main(argv + extra) == 0
    return (json_dir / "fig8.json").read_bytes(), rendered(capsys)


class TestPauseStudyDeterminism:
    def test_serial_parallel_and_cached_runs_are_byte_identical(
        self, tmp_path, capsys
    ):
        cache_dir = str(tmp_path / "cache")
        metrics_path = tmp_path / "metrics.json"

        serial_json, serial_text = run_fig8(
            tmp_path, capsys, "serial", ["--no-cache"]
        )
        parallel_json, parallel_text = run_fig8(
            tmp_path, capsys, "parallel", ["--jobs", "4", "--cache-dir", cache_dir]
        )
        warm_json, warm_text = run_fig8(
            tmp_path,
            capsys,
            "warm",
            [
                "--jobs",
                "4",
                "--cache-dir",
                cache_dir,
                "--metrics-out",
                str(metrics_path),
            ],
        )

        # the rendered figure and the JSON artifact never depend on the
        # worker count or on whether results came from cache
        assert parallel_text == serial_text
        assert warm_text == serial_text
        assert parallel_json == serial_json
        assert warm_json == serial_json
        assert "Figure 8" in serial_text

        # a warm-cache re-run performs zero simulations
        doc = json.loads(metrics_path.read_text())
        runner_stats = doc["runner"]
        assert runner_stats["simulations"] == 0
        assert runner_stats["cache_misses"] == 0
        assert runner_stats["cache_hits"] == runner_stats["cells"] > 0

    def test_base_seed_changes_the_results(self, tmp_path, capsys):
        """--seed actually reaches the cells: a different base seed
        produces a different (still deterministic) artifact.  Uses
        cassandra-wi — the graphchi workloads are pure graph traversals
        that never consult their RNG, so their pauses are seed-invariant
        by design."""
        default_json, _ = run_fig8(
            tmp_path, capsys, "s42", ["--no-cache"], workloads=["cassandra-wi"]
        )
        other_json, _ = run_fig8(
            tmp_path,
            capsys,
            "s43",
            ["--no-cache", "--seed", "43"],
            workloads=["cassandra-wi"],
        )
        assert other_json != default_json

    def test_resume_requires_an_existing_cache(self, tmp_path, capsys):
        missing = str(tmp_path / "never-created")
        assert (
            main(
                [
                    "fig8",
                    "--workloads",
                    *WORKLOADS,
                    "--resume",
                    "--cache-dir",
                    missing,
                ]
            )
            == 2
        )
        err = capsys.readouterr().err
        assert "cache" in err

    def test_resume_and_no_cache_conflict(self, capsys):
        assert main(["fig8", "--resume", "--no-cache"]) == 2
        assert "--resume" in capsys.readouterr().err


class TestSharedDaCapoRuns:
    def test_figure7_reads_figure6s_runs(self):
        """Figure 7's inputs come from Figure 6's profiled ``real`` run:
        after ``figure6`` on one runner, ``figure7`` simulates nothing,
        takes one memo hit per benchmark, and gives the series a fresh
        runner computes on its own."""
        pmd = [SPEC_BY_NAME["pmd"]]
        runner = Runner()
        figures.figure6(pmd, runner=runner)
        before = runner.stats.as_dict()
        shared = figures.figure7(pmd, runner=runner)
        after = runner.stats.as_dict()
        assert after["simulations"] == before["simulations"]
        assert after["cells"] == before["cells"]
        assert after["memo_hits"] - before["memo_hits"] == 1
        assert shared == figures.figure7(pmd, runner=Runner())
