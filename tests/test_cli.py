"""Tests for the rolp-bench CLI (run at a tiny scale)."""

import json

import pytest

from repro.bench.cli import main


@pytest.fixture(autouse=True)
def tiny_scale(monkeypatch, tmp_path):
    monkeypatch.setenv("ROLP_BENCH_SCALE", "0.02")
    # every test gets a private (cold) result cache, so telemetry
    # assertions always see fresh simulations and nothing touches cwd
    monkeypatch.setenv("ROLP_BENCH_CACHE_DIR", str(tmp_path / "cell-cache"))


class TestCli:
    def test_table1_restricted(self, capsys):
        assert main(["table1", "--workloads", "lucene"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "lucene" in out

    def test_fig6_restricted(self, capsys):
        assert main(["fig6", "--benchmarks", "avrora"]) == 0
        out = capsys.readouterr().out
        assert "Figure 6" in out
        assert "avrora" in out

    def test_fig7_restricted(self, capsys):
        assert main(["fig7", "--benchmarks", "luindex"]) == 0
        out = capsys.readouterr().out
        assert "Figure 7" in out

    def test_fig8_restricted(self, capsys):
        assert main(["fig8", "--workloads", "graphchi-cc"]) == 0
        out = capsys.readouterr().out
        assert "graphchi-cc" in out
        assert "p99.9" in out

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["fig99"])

    def test_perf_is_not_an_experiment(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["perf"])
        assert err.value.code == 2
        assert "invalid choice: 'perf'" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--request-timeout", "--idle-timeout"])
    def test_negative_serve_timeout_is_a_usage_error(self, flag, capsys):
        # a negative deadline would answer every queued job 504 while it
        # still runs; a negative idle timeout would reap busy sessions
        with pytest.raises(SystemExit) as err:
            main(["serve", flag, "-1"])
        assert err.value.code == 2
        stderr = capsys.readouterr().err
        assert "usage: rolp-bench" in stderr
        assert "%s: must be at least 0 seconds" % flag in stderr


class TestUnknownNames:
    def test_unknown_benchmark_exits_2_with_choices(self, capsys):
        assert main(["fig6", "--benchmarks", "nope"]) == 2
        err = capsys.readouterr().err
        assert "rolp-bench: unknown benchmark nope" in err
        assert "avrora" in err  # the valid choices are listed

    def test_unknown_workload_exits_2_with_choices(self, capsys):
        assert main(["fig8", "--workloads", "nope", "lucene"]) == 2
        err = capsys.readouterr().err
        assert "rolp-bench: unknown workload nope" in err
        assert "lucene" in err

    def test_unknown_collector_exits_2_with_choices(self, capsys):
        assert main(["trace", "--collectors", "shenandoah"]) == 2
        err = capsys.readouterr().err
        assert "rolp-bench: unknown collector shenandoah" in err
        assert "rolp" in err

    def test_nothing_runs_before_validation(self, capsys):
        main(["table1", "--workloads", "nope"])
        out = capsys.readouterr().out
        assert "Table 1" not in out

    def test_unwritable_output_path_fails_fast(self, capsys):
        for argv, banner in (
            (["table1", "--trace-out", "/nonexistent_dir/t.json"], "Table 1"),
            (["explain", "--report-out", "/nonexistent_dir/r.json"], "[Explain]"),
        ):
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert "cannot write" in captured.err
            assert banner not in captured.out  # nothing ran first


class TestTelemetryOutputs:
    def test_trace_experiment_prints_summary(self, capsys):
        assert (
            main(
                [
                    "trace",
                    "--workloads",
                    "graphchi-cc",
                    "--collectors",
                    "g1",
                    "rolp",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "[Trace]" in out
        assert "graphchi-cc" in out
        assert "rolp" in out

    def test_fig8_trace_and_metrics_outputs(self, tmp_path):
        """The acceptance-criterion invocation, at test scale."""
        trace_path = tmp_path / "trace.json"
        metrics_path = tmp_path / "metrics.json"
        assert (
            main(
                [
                    "fig8",
                    "--workloads",
                    "graphchi-cc",
                    "--trace-out",
                    str(trace_path),
                    "--metrics-out",
                    str(metrics_path),
                ]
            )
            == 0
        )

        trace = json.loads(trace_path.read_text())
        events = trace["traceEvents"]
        # one process track per collector run, each with GC spans and
        # JIT-compile instants
        tracks = {
            e["args"]["name"]: e["pid"] for e in events if e["ph"] == "M"
        }
        assert set(tracks) == {
            "graphchi-cc/cms",
            "graphchi-cc/g1",
            "graphchi-cc/ng2c",
            "graphchi-cc/rolp",
        }
        for name, pid in tracks.items():
            gc_spans = [
                e
                for e in events
                if e.get("pid") == pid
                and e["ph"] == "X"
                and e["name"].startswith("gc/")
            ]
            assert gc_spans, "no GC spans for %s" % name
            compiles = [
                e
                for e in events
                if e.get("pid") == pid and e["name"] == "jit/compile"
            ]
            assert compiles, "no jit/compile instants for %s" % name

        doc = json.loads(metrics_path.read_text())
        assert doc["schema"] == "rolp-bench/v1"
        payload = doc["experiments"]["fig8"]
        collectors = payload["workloads"]["graphchi-cc"]["collectors"]
        # registry histogram totals match the figure payload (which is
        # built from the very PauseStudy objects the text rendering uses)
        histogram = doc["metrics"]["gc_pause_ms"]
        total_observed = sum(s["count"] for s in histogram["samples"])
        # the payload counts exclude the warmup pauses the figure
        # discards, so the registry (which sees every pause) dominates
        payload_total = sum(
            c["pause_count"] for c in collectors.values()
        )
        assert total_observed >= payload_total > 0

    def test_json_dir_writes_per_experiment_files(self, tmp_path):
        out_dir = tmp_path / "artifacts"
        assert (
            main(
                [
                    "table1",
                    "--workloads",
                    "lucene",
                    "--json-dir",
                    str(out_dir),
                ]
            )
            == 0
        )
        doc = json.loads((out_dir / "table1.json").read_text())
        assert doc["schema"] == "rolp-bench/v1"
        rows = doc["table1"]["rows"]
        assert rows and rows[0]["workload"] == "lucene"
