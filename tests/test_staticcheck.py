"""``rolp-bench staticcheck``: the conflict analyzer's report and CLI.

The analyzer's soundness against the runtime profiler is pinned by
``test_staticcheck_crossval.py``; these tests pin the report schema,
the command line and the per-workload predictions.
"""

import json
import os

from repro.analysis.staticcheck import run_staticcheck
from repro.bench import cli

CORPUS_DIR = os.path.join(os.path.dirname(__file__), "corpus")

#: per registered workload: (structural, value-dependent, clean) site
#: counts and the predicted conflict sites they sum to
EXPECTED_PREDICTIONS = {
    "adversarial": ((32, 3, 0), 35),
    "cassandra-wi": ((2, 4, 5), 6),
    "cassandra-rw": ((2, 4, 5), 6),
    "cassandra-ri": ((2, 4, 5), 6),
    "graphchi-cc": ((1, 1, 2), 2),
    "graphchi-pr": ((1, 1, 2), 2),
    "lucene": ((0, 4, 7), 4),
    "traced-sample": ((0, 2, 1), 2),
}


class TestCommandLine:
    def test_staticcheck_exits_zero_on_shipped_workloads(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = cli.main(
            [
                "staticcheck",
                "--workloads",
                "lucene",
                "--corpus-dir",
                CORPUS_DIR,
                "--report-out",
                str(out),
            ]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["schema"] == "rolp-bench/staticcheck/v2"
        assert report["totals"]["predicted_conflict_sites"] > 0
        assert report["totals"]["conflict_heavy_genomes"] >= 1
        assert [entry["name"] for entry in report["workloads"]] == ["lucene"]

    def test_report_out_is_honoured_under_any_name(self, tmp_path, monkeypatch):
        """An explicit ``--report-out`` wins even when it names the
        explain and fuzz default."""
        monkeypatch.chdir(tmp_path)
        argv = ["staticcheck", "--workloads", "lucene", "--corpus-dir", CORPUS_DIR]
        assert cli.main(argv + ["--report-out", "pause_report.json"]) == 0
        report = json.loads((tmp_path / "pause_report.json").read_text())
        assert report["schema"] == "rolp-bench/staticcheck/v2"
        assert not (tmp_path / "staticcheck_report.json").exists()

    def test_full_report_over_every_registered_workload(self):
        report = run_staticcheck()
        names = [entry["name"] for entry in report["workloads"]]
        assert "cassandra-wi" in names and "adversarial" in names
        assert report["totals"]["predicted_conflict_sites"] > 0
        predictions = {
            entry["name"]: (
                (
                    entry["collision_classes"]["structural"],
                    entry["collision_classes"]["value-dependent"],
                    entry["collision_classes"]["clean"],
                ),
                entry["predicted_conflict_sites"],
            )
            for entry in report["workloads"]
        }
        assert predictions == EXPECTED_PREDICTIONS
