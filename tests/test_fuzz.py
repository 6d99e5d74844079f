"""The fuzz harness itself: oracle judgment, budget parsing, genome
shrinking, corpus banking/replay, and the --jobs determinism contract
of the search loop."""

from __future__ import annotations

import json

import pytest

from repro.analysis.fuzz_oracle import judge
from repro.bench import fuzz
from repro.bench.runner import Runner
from repro.workloads.adversarial import HOSTILE_DEFAULT, DemographyGenome

SEED = 20260805


@pytest.fixture(autouse=True)
def tiny_scale(monkeypatch):
    monkeypatch.setenv("ROLP_BENCH_SCALE", "0.02")


def clean(fingerprint="fp", drift=0.0, passes=3, **metrics):
    base = {"prediction_error": drift, "inference_passes": passes}
    base.update(metrics)
    return {"violation": None, "fingerprint": fingerprint, "metrics": base}


def violated(rule="heap/region-accounting"):
    return {
        "violation": {"rule": rule, "message": "boom", "details": {}},
        "fingerprint": None,
        "metrics": {},
    }


class TestOracle:
    def test_quiet_on_agreeing_clean_backends(self):
        results = {name: clean() for name in ("reference", "fast")}
        assert judge(results) == []

    def test_invariant_violation_carries_rule_and_backend(self):
        results = {"reference": clean(), "fast": violated("lock/discipline")}
        findings = judge(results)
        assert [f.rule_id for f in findings] == ["invariant/lock/discipline"]
        assert "[fast]" in findings[0].detail

    def test_fingerprint_divergence_excludes_violated_backends(self):
        diverged = {"reference": clean("A"), "fast": clean("B")}
        assert [f.rule_id for f in judge(diverged)] == [
            "differential/fingerprint-divergence"
        ]
        # the violated backend is reported as a violation, not as part
        # of the divergence comparison, which needs two clean backends
        results = {"reference": clean("A"), "fast": violated()}
        assert [f.rule_id for f in judge(results)] == [
            "invariant/heap/region-accounting"
        ]

    def test_accuracy_cliff_needs_multiple_passes(self):
        thrashing = {"reference": clean(drift=2.5, passes=3)}
        assert [f.rule_id for f in judge(thrashing)] == ["inference/accuracy-cliff"]
        single_pass = {"reference": clean(drift=2.5, passes=1)}
        assert judge(single_pass) == []
        converged = {"reference": clean(drift=0.2, passes=8)}
        assert judge(converged) == []

    def test_findings_deterministically_ordered(self):
        results = {
            "reference": violated("a-rule"),
            "fast": violated("b-rule"),
        }
        rules = [f.rule_id for f in judge(results)]
        assert rules == [
            "invariant/b-rule",  # sorted by backend name: fast < reference
            "invariant/a-rule",
        ]
        results = {
            "reference": clean(drift=5.0, passes=4),
            "fast": violated("a-rule"),
        }
        rules = [f.rule_id for f in judge(results)]
        assert rules == ["invariant/a-rule", "inference/accuracy-cliff"]


class TestBudget:
    def test_count_budget(self):
        assert fuzz.parse_budget("64") == (64, None)

    def test_time_budget(self):
        assert fuzz.parse_budget("120s") == (None, 120.0)

    @pytest.mark.parametrize("bad", ["0", "-3", "0s", "-1s"])
    def test_non_positive_rejected(self, bad):
        with pytest.raises(ValueError):
            fuzz.parse_budget(bad)


class TestShrinking:
    def test_shrinks_to_minimum_when_predicate_always_holds(self):
        shrunk = fuzz.shrink_genome(HOSTILE_DEFAULT, lambda g: True)
        assert shrunk.complexity() < HOSTILE_DEFAULT.complexity()
        # greedy descent with an always-true predicate must reach the
        # domain floor, where no shrink candidates remain
        assert shrunk.shrink_candidates() == []
        assert shrunk.collision_sites == 0
        assert shrunk.threads == 1

    def test_identity_when_predicate_never_holds(self):
        assert (
            fuzz.shrink_genome(HOSTILE_DEFAULT, lambda g: False) == HOSTILE_DEFAULT
        )

    def test_preserves_predicate(self):
        # keep at least 8 collision sites: the shrink must stop right
        # at the boundary, never below it
        def holds(genome):
            return genome.collision_sites >= 8

        shrunk = fuzz.shrink_genome(HOSTILE_DEFAULT, holds)
        assert holds(shrunk)
        assert shrunk.collision_sites == 8


class TestCorpus:
    def test_bank_and_load_round_trip(self, tmp_path):
        corpus_dir = str(tmp_path / "corpus")
        name = fuzz.bank_corpus_entry(
            corpus_dir,
            "objective/max-conflicts",
            "detail text",
            HOSTILE_DEFAULT,
            seed=123,
            check="max-conflicts",
            metrics={"conflict_rate": 22.0},
            baseline_conflict_rate=1.0,
        )
        entries = fuzz.load_corpus(corpus_dir)
        assert [entry["_file"] for entry in entries] == [name]
        entry = entries[0]
        assert entry["schema"] == fuzz.CORPUS_SCHEMA
        assert entry["ops"] == fuzz.CORPUS_OPS
        assert entry["seed"] == 123
        assert DemographyGenome.from_dict(entry["genome"]) == HOSTILE_DEFAULT
        assert "fuzz_eval(" in entry["cell_key"]

    def test_entry_name_is_deterministic(self):
        first = fuzz.corpus_entry_name("invariant/heap/x", HOSTILE_DEFAULT)
        second = fuzz.corpus_entry_name("invariant/heap/x", HOSTILE_DEFAULT)
        assert first == second
        assert first.startswith("fuzz-invariant-heap-x-")
        assert first != fuzz.corpus_entry_name("other/rule", HOSTILE_DEFAULT)

    def test_load_rejects_unknown_schema(self, tmp_path):
        corpus_dir = tmp_path / "corpus"
        corpus_dir.mkdir()
        (corpus_dir / "bad.json").write_text(json.dumps({"schema": "nope"}))
        with pytest.raises(ValueError):
            fuzz.load_corpus(str(corpus_dir))

    def test_missing_dir_is_empty(self, tmp_path):
        assert fuzz.load_corpus(str(tmp_path / "absent")) == []


class TestFailureRules:
    def test_only_invariant_and_differential_fail_ci(self):
        report = {
            "findings": [
                {"rule_id": "inference/accuracy-cliff", "detail": ""},
                {"rule_id": "invariant/heap/x", "detail": ""},
                {"rule_id": "differential/fingerprint-divergence", "detail": ""},
                {"rule_id": "invariant/heap/x", "detail": "dup"},
            ]
        }
        assert fuzz.report_failure_rules(report) == [
            "differential/fingerprint-divergence",
            "invariant/heap/x",
        ]
        assert fuzz.report_failure_rules({"findings": []}) == []


@pytest.mark.fuzz
class TestSearchDeterminism:
    """--jobs N must be byte-identical to the serial run: the report
    payload and every banked corpus entry."""

    def run_search(self, tmp_path, monkeypatch, jobs, tag):
        # corpus replays are banked at CORPUS_OPS; compress it here so
        # the shrink descent (many single-cell evaluations) stays cheap
        monkeypatch.setattr(fuzz, "CORPUS_OPS", 800)
        corpus_dir = str(tmp_path / ("corpus-%s" % tag))
        runner = Runner(jobs=jobs, cache=None, base_seed=SEED)
        report = fuzz.fuzz(runner, budget="3", corpus_dir=corpus_dir)
        banked = {
            name: (tmp_path / ("corpus-%s" % tag) / name).read_bytes()
            for name in report["corpus_entries"]
        }
        return json.dumps(report, sort_keys=True).encode(), banked

    def test_jobs_byte_identical(self, tmp_path, monkeypatch):
        serial = self.run_search(tmp_path, monkeypatch, jobs=1, tag="serial")
        pooled = self.run_search(tmp_path, monkeypatch, jobs=4, tag="pooled")
        assert serial == pooled

    def test_report_has_no_wallclock_fields(self, tmp_path, monkeypatch):
        report_bytes, _ = self.run_search(tmp_path, monkeypatch, jobs=1, tag="shape")
        report = json.loads(report_bytes)
        assert report["schema"] == "rolp-bench/fuzz-report/v1"
        assert report["base_seed"] == SEED
        assert report["evaluations"] == 3
        # determinism would silently break if anyone adds timing to the
        # payload; pin the full key set
        assert sorted(report) == [
            "base_seed",
            "baseline",
            "budget",
            "corpus_entries",
            "corpus_ops",
            "eval_ops",
            "evaluations",
            "findings",
            "generations",
            "inference_period_gcs",
            "objectives",
            "schema",
            "static_predictor",
        ]
