"""Pause-attribution tests: the decomposition math on synthetic data,
determinism across ``--jobs``, and the ``rolp-bench explain`` CLI."""

import json

import pytest

from repro.analysis.pause_attribution import (
    REPORT_SCHEMA,
    _attribute,
    _tail_count,
    build_report,
    explain,
    render_report,
    summarize_run,
)
from repro.bench.cli import main
from repro.bench.runner import Runner


@pytest.fixture(autouse=True)
def tiny_scale(monkeypatch, tmp_path):
    monkeypatch.setenv("ROLP_BENCH_SCALE", "0.02")
    monkeypatch.setenv("ROLP_BENCH_CACHE_DIR", str(tmp_path / "cell-cache"))


def _pause(start_ns, duration_ms, contributions, kind="young"):
    return {
        "span_id": "gc-1/%s" % kind,
        "kind": kind,
        "start_ns": start_ns,
        "duration_ms": duration_ms,
        "bytes_copied": sum(row[2] for row in contributions),
        "contributions": [list(row) for row in contributions],
    }


class TestAttributionMath:
    def test_tail_count(self):
        assert _tail_count(1000, 99.9) == 1
        assert _tail_count(1000, 99.0) == 10
        assert _tail_count(5, 99.9) == 1
        assert _tail_count(0, 99.9) == 1  # clamped floor

    def test_duration_splits_pro_rata_by_bytes(self):
        shares, attributed, total = _attribute(
            [_pause(0, 10.0, [[0x10000, 2, 750], [0x20000, 0, 250]])]
        )
        assert shares[(0x10000, 2)] == pytest.approx(7.5)
        assert shares[(0x20000, 0)] == pytest.approx(2.5)
        assert attributed == pytest.approx(10.0)
        assert total == pytest.approx(10.0)

    def test_zero_copy_pause_stays_unattributed(self):
        shares, attributed, total = _attribute([_pause(0, 4.0, [])])
        assert shares == {}
        assert attributed == 0.0
        assert total == pytest.approx(4.0)

    def test_summarize_ranks_tail_contributors(self):
        # 99 small pauses dominated by context A, one huge pause
        # dominated by context B: B must lead the tail ranking with a
        # strongly positive differential.
        pauses = [
            _pause(i * 1000, 1.0, [[0xA0000, 1, 1000]]) for i in range(99)
        ]
        pauses.append(_pause(999_000, 50.0, [[0xB0000, 5, 900], [0xA0000, 1, 100]]))
        run = summarize_run(
            {
                "workload": "w",
                "collector": "g1",
                "operations": 100,
                "pauses": pauses,
                "recorder": {"capacity": 100, "retained": 100},
            },
            trace_id="feed03",
        )
        assert run["pauses"] == 100
        top = run["contributors"][0]
        assert top["context"] == "0x000b0000"
        assert top["site_id"] == 0xB
        assert top["age_class"] == 5
        assert top["differential"] > 0.5
        assert top["trace_id"] == "feed03"
        assert run["tail"]["attributed_fraction"] == pytest.approx(1.0)
        assert run["p999_ms"] >= run["p99_ms"] >= run["p50_ms"]

    def test_report_is_sorted_and_schema_tagged(self):
        rows = [
            {
                "workload": "w",
                "collector": name,
                "operations": 1,
                "pauses": [],
                "recorder": {},
            }
            for name in ("rolp", "cms")
        ]
        report = build_report(rows, ["t1", "t2"], scale=1.0)
        assert report["schema"] == REPORT_SCHEMA
        assert [r["collector"] for r in report["runs"]] == ["cms", "rolp"]
        render_report(report)  # must not raise on empty runs


class TestExplainDeterminism:
    def test_jobs_do_not_change_the_report(self):
        serial = explain(["lucene"], ["g1", "rolp"], runner=Runner(jobs=1))
        parallel = explain(["lucene"], ["g1", "rolp"], runner=Runner(jobs=2))
        assert (
            json.dumps(serial, sort_keys=True).encode()
            == json.dumps(parallel, sort_keys=True).encode()
        )

    def test_tail_attribution_meets_the_acceptance_bar(self):
        report = explain(["lucene"], runner=Runner(jobs=1))
        assert report["runs"], "no runs in report"
        for run in report["runs"]:
            assert run["trace_id"]
            assert run["tail"]["attributed_fraction"] >= 0.90
            for contributor in run["contributors"]:
                assert contributor["trace_id"] == run["trace_id"]


class TestExplainCli:
    def test_cli_writes_report_and_dump(self, tmp_path, capsys):
        report_path = tmp_path / "pause_report.json"
        flight_path = tmp_path / "fleet.jfr.jsonl"
        assert (
            main(
                [
                    "explain",
                    "--workloads",
                    "lucene",
                    "--collectors",
                    "g1",
                    "--no-cache",
                    "--flight-recorder",
                    "2048",
                    "--flight-out",
                    str(flight_path),
                    "--report-out",
                    str(report_path),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "[Explain]" in out
        report = json.loads(report_path.read_text())
        assert report["schema"] == REPORT_SCHEMA
        (run,) = report["runs"]
        assert run["workload"] == "lucene"
        assert run["collector"] == "g1"
        assert run["recorder"]["retained"] <= run["recorder"]["capacity"]
        # the dump is always written, with its counters trailer
        trailer = json.loads(flight_path.read_text().splitlines()[-1])
        assert trailer["flight_recorder"]["capacity"] == 2048
