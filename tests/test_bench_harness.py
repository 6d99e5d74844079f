"""Tests for the benchmark harness itself (registry, config, renderers)
at tiny scales — the full-size assertions live in benchmarks/."""

import pytest

from repro.bench import config
from repro.bench.config import bench_scale, scaled_ops
from repro.bench.figures import (
    FIG6_MODES,
    figure6,
    figure7,
    render_figure6,
    render_figure7,
)
from repro.bench.tables import (
    Table1Row,
    Table2Row,
    render_table1,
    render_table2,
)
from repro.bench.workload_registry import (
    BIG_WORKLOADS,
    make_big_workload,
    run_big_workload,
)
from repro.workloads.dacapo import get_spec


class TestConfig:
    def test_default_scale_is_one(self, monkeypatch):
        monkeypatch.delenv("ROLP_BENCH_SCALE", raising=False)
        assert bench_scale() == 1.0

    def test_env_scale(self, monkeypatch):
        monkeypatch.setenv("ROLP_BENCH_SCALE", "0.5")
        assert bench_scale() == 0.5
        assert scaled_ops(100_000) == 50_000

    def test_garbage_env_ignored(self, monkeypatch):
        monkeypatch.setenv("ROLP_BENCH_SCALE", "lots")
        assert bench_scale() == 1.0

    def test_floor_keeps_runs_meaningful(self, monkeypatch):
        monkeypatch.setenv("ROLP_BENCH_SCALE", "0.0001")
        assert scaled_ops(100_000) >= 2_000


class TestScaleWarnings:
    """Invalid ROLP_BENCH_SCALE values warn instead of silently running
    a full-scale grid (a typo like ``O.2`` used to cost hours)."""

    @pytest.fixture(autouse=True)
    def fresh_warning_state(self, monkeypatch):
        monkeypatch.setattr(config, "_warned_values", set())

    def test_garbage_warns_and_falls_back_to_one(self, monkeypatch):
        monkeypatch.setenv("ROLP_BENCH_SCALE", "O.2")
        with pytest.warns(RuntimeWarning, match="not a number"):
            assert bench_scale() == 1.0

    def test_negative_warns_and_falls_back_to_one(self, monkeypatch):
        monkeypatch.setenv("ROLP_BENCH_SCALE", "-0.5")
        with pytest.warns(RuntimeWarning, match="must be positive"):
            assert bench_scale() == 1.0

    def test_zero_warns_and_falls_back_to_one(self, monkeypatch):
        monkeypatch.setenv("ROLP_BENCH_SCALE", "0")
        with pytest.warns(RuntimeWarning, match="must be positive"):
            assert bench_scale() == 1.0

    def test_nan_warns_and_falls_back_to_one(self, monkeypatch):
        monkeypatch.setenv("ROLP_BENCH_SCALE", "nan")
        with pytest.warns(RuntimeWarning, match="must be positive"):
            assert bench_scale() == 1.0

    def test_sub_floor_warns_and_clamps(self, monkeypatch):
        monkeypatch.setenv("ROLP_BENCH_SCALE", "0.0001")
        with pytest.warns(RuntimeWarning, match="below the 0.01 floor"):
            assert bench_scale() == config.MIN_SCALE

    def test_each_value_warns_exactly_once(self, monkeypatch, recwarn):
        monkeypatch.setenv("ROLP_BENCH_SCALE", "bogus")
        assert bench_scale() == 1.0
        assert len(recwarn.list) == 1
        assert bench_scale() == 1.0  # same bad value: fallback, no new warning
        assert len(recwarn.list) == 1
        monkeypatch.setenv("ROLP_BENCH_SCALE", "also-bogus")
        bench_scale()  # a *different* bad value warns again
        assert len(recwarn.list) == 2

    def test_valid_values_never_warn(self, monkeypatch, recwarn):
        monkeypatch.setenv("ROLP_BENCH_SCALE", "0.25")
        assert bench_scale() == 0.25
        assert not recwarn.list


class TestRegistry:
    def test_six_workloads(self):
        assert set(BIG_WORKLOADS) == {
            "cassandra-wi",
            "cassandra-rw",
            "cassandra-ri",
            "lucene",
            "graphchi-cc",
            "graphchi-pr",
        }

    def test_make_unknown_rejected(self):
        with pytest.raises(KeyError):
            make_big_workload("hbase")

    def test_run_returns_result_and_workload(self):
        result, workload = run_big_workload("lucene", "g1", operations=500)
        assert result.workload == "lucene"
        assert workload.vm is not None


class TestRenderers:
    def test_table1_renders(self):
        rows = [Table1Row("cassandra-wi", 1.0, 2.0, 2, 5, 8.0)]
        text = render_table1(rows)
        assert "cassandra-wi" in text and "OLD MB" in text

    def test_table2_renders(self):
        rows = [Table2Row("pmd", 32, 100, 50, 6, 1.2)]
        text = render_table2(rows)
        assert "pmd" in text and "CF #" in text


class TestFigureHarness:
    @pytest.fixture(scope="class")
    def tiny_fig6(self):
        return figure6(specs=[get_spec("avrora")])

    def test_figure6_modes_present(self, tiny_fig6):
        assert set(tiny_fig6["avrora"]) == set(FIG6_MODES)

    def test_figure6_renders(self, tiny_fig6):
        text = render_figure6(tiny_fig6)
        assert "avrora" in text and "slow-call-profiling" in text

    def test_figure7_inverse_p(self):
        series = figure7(specs=[get_spec("avrora")], p_fractions=(0.1, 0.2))
        row = series["avrora"]
        assert row[0.1] >= row[0.2]
        assert "avrora" in render_figure7(series)
