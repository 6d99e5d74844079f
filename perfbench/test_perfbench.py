"""Self-tests of the benchmark (not part of the tier-1 suite).

    python3 -m pytest perfbench -q

The minimal-size runs start real child processes and a real server, so
this file takes a minute or two.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import compare  # noqa: E402
import common  # noqa: E402
import plans  # noqa: E402
import tracing  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def test_benchmark_json_mirrors_the_metric_tables():
    doc = _benchmark_json()
    assert len(doc["end_to_end"]) <= 16 and len(doc["per_layer"]) <= 128
    assert [w["name"] for w in doc["workloads"]] == list(plans.WORKLOADS)
    for section, table in (("end_to_end", plans.END_TO_END), ("per_layer", plans.PER_LAYER)):
        assert [m["name"] for m in doc[section]] == list(table)
        for metric in doc[section]:
            assert NAME.match(metric["name"]), metric["name"]
            assert UNIT.match(metric["unit"]), metric["unit"]
            unit, better, _ = table[metric["name"]]
            assert (metric["unit"], metric["better"]) == (unit, better)
    setup = [m for m in doc["end_to_end"] if m["name"] == "setup_s"][0]
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"]) <= 0.25


def test_every_layer_metric_names_what_it_should_move():
    for name, (_, _, moves) in plans.PER_LAYER.items():
        if name.startswith("trace.") or moves.startswith("none"):
            continue  # validity metrics, and layers expected to stay ~0
        assert any(workload in moves for workload in plans.WORKLOADS) or "both grids" in moves, name
        if "no end-to-end move" not in moves:
            assert any(metric in moves for metric in plans.END_TO_END), name


def test_tail_percentile_leaves_ten_samples_beyond():
    for samples in (28, 34, 40, 3000):
        pct = common.tail_percentile(samples)
        assert samples * (1 - pct / 100) >= 10
        assert samples * (1 - (pct + 0.05) / 100) < 10.000001 or pct == 50.0


def test_serve_plan_is_seeded_with_a_fixed_fresh_share():
    warm, clients = plans.serve_plan(5, "full")
    again = plans.serve_plan(5, "full")
    assert (warm, clients) == again
    assert clients != plans.serve_plan(6, "full")[1]
    jobs = sum(script.jobs for scripts in clients for script in scripts)

    def fresh_cells(clients):
        return sorted(
            (script.workload, script.collector, step, ops)
            for scripts in clients for script in scripts
            for step, ops in enumerate(script.steps) if ops != plans.SERVE_STEP_OPS
        )

    fresh = fresh_cells(clients)
    assert len(fresh) == len(set(fresh)) == round(plans.SERVE_FRESH_SHARE * jobs)
    assert max(ops for *_, ops in fresh) < plans.SERVE_STEP_OPS
    assert fresh_cells(clients[1:]) == []  # only the first client runs fresh cells
    assert fresh == fresh_cells(plans.serve_plan(6, "full")[1])  # the same under every seed


def test_tracing_uninstall_restores_every_attribute():
    from repro.bench import artifacts, runner
    from repro.core.profiler import RolpProfiler
    from repro.runtime.vm import JavaVM
    from repro.server.app import ServerApp

    owners = (runner.Runner, runner.ResultCache, runner, artifacts, JavaVM, RolpProfiler, ServerApp)
    before = [dict(vars(owner)) for owner in owners]
    probe = tracing.Tracing()
    probe.install()
    probe.install_server()
    assert JavaVM.run is not before[4]["run"]
    probe.uninstall()
    after = [dict(vars(owner)) for owner in owners]
    for old, new in zip(before, after):
        assert set(old) == set(new)
        assert all(old[key] is new[key] for key in old if key != "__dict__")


def test_samples_are_charged_to_the_innermost_repro_package():
    from repro.bench.runner import make_cell, run_cells

    seen = []

    class Runner:
        def run(self, cells):
            seen.append(tracing.charge(sys._getframe()))
            return [None for _ in cells]

    run_cells([make_cell("table1", workload="lucene", operations=1)], Runner())
    assert seen == ["bench"]


def test_compare_refuses_other_backend():
    record = {
        "workload": "dacapo-grid",
        "provenance": {field: "x" for field in compare.SAME},
        "result": {"metrics": {"wall_s": {"value": 2.0, "unit": "s"}}},
    }
    other = json.loads(json.dumps(record))
    other["result"]["metrics"]["wall_s"]["value"] = 3.0
    assert compare.compare(record, other) == [("wall_s", 2.0, 3.0, 0.5)]
    other["provenance"]["backend"] = "reference"
    with pytest.raises(ValueError, match="backend"):
        compare.compare(record, other)


def _run(args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py")] + args,
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", plans.WORKLOADS)
def test_minimal_run_prints_every_metric(workload, trace):
    done = _run(["--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", str(trace), "--size", "mini"])
    assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    table = plans.PER_LAYER if trace else plans.END_TO_END
    assert {name: entry["unit"] for name, entry in result["metrics"].items()} == {
        name: spec[0] for name, spec in table.items()
    }
    if not trace:
        assert all(entry["value"] > 0 for entry in result["metrics"].values())
    if workload == "serve-sessions":
        path = os.path.join(ROOT, ".perfbench", "results", "serve-sessions-seed3-trace%d.json" % trace)
        with open(path) as handle:
            details = json.load(handle)["details"]
        assert details["sessions_active"] == 0
        assert details["ledger"]["completed"] == details["ledger"]["accepted"] > 0


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(["--workload", "dacapo-grid", "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=str(tmp_path))
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
