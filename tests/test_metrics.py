"""Tests for pause metrics, throughput, and report rendering."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.metrics.pauses import (
    duration_histogram,
    percentile,
    percentile_profile,
    tail_reduction,
)
from repro.metrics.report import (
    render_histogram_series,
    render_percentile_series,
    render_table,
)
from repro.workloads.base import Workload, run_workload

floats = st.lists(
    st.floats(min_value=0, max_value=1e4, allow_nan=False), min_size=1, max_size=200
)


class TestPercentile:
    def test_empty_is_zero(self):
        assert percentile([], 99.0) == 0.0

    def test_median_of_known_list(self):
        assert percentile([1, 2, 3, 4, 5], 50.0) == 3

    def test_p100_is_max(self):
        assert percentile([5, 1, 9, 3], 100.0) == 9

    def test_p0_is_min(self):
        assert percentile([5, 1, 9, 3], 0.0) == 1

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            percentile([1], 101)

    @given(values=floats, pct=st.floats(min_value=0, max_value=100))
    def test_result_is_an_element(self, values, pct):
        assert percentile(values, pct) in values

    @given(values=floats)
    def test_monotone_in_pct(self, values):
        previous = percentile(values, 0)
        for pct in (25, 50, 75, 90, 99, 100):
            current = percentile(values, pct)
            assert current >= previous
            previous = current

    def test_profile_has_requested_keys(self):
        profile = percentile_profile([1.0, 2.0], percentiles=(50.0, 99.0))
        assert set(profile) == {50.0, 99.0}


class TestHistogram:
    def test_buckets_cover_all_pauses(self):
        pauses = [1, 20, 60, 300, 2000]
        histogram = duration_histogram(pauses)
        assert sum(count for _, count in histogram) == len(pauses)

    def test_bucket_placement(self):
        histogram = duration_histogram([5.0], intervals_ms=(10.0, 100.0))
        assert histogram == [("0-10", 1), ("10-100", 0), (">100", 0)]

    def test_edge_inclusive(self):
        histogram = duration_histogram([10.0], intervals_ms=(10.0, 100.0))
        assert histogram[0][1] == 1

    def test_overflow_bucket(self):
        histogram = duration_histogram([5000.0])
        assert histogram[-1][1] == 1

    def test_unsorted_edges_rejected(self):
        with pytest.raises(ValueError):
            duration_histogram([1.0], intervals_ms=(100.0, 10.0))

    @given(values=floats)
    def test_conservation(self, values):
        histogram = duration_histogram(values)
        assert sum(count for _, count in histogram) == len(values)


class TestTailReduction:
    def test_halving_is_fifty_percent(self):
        base = [10.0] * 100
        improved = [5.0] * 100
        assert tail_reduction(base, improved) == pytest.approx(0.5)

    def test_zero_baseline(self):
        assert tail_reduction([0.0], [1.0]) == 0.0

    def test_regression_is_negative(self):
        assert tail_reduction([1.0] * 10, [2.0] * 10) < 0


class ClockWorkload(Workload):
    """Each operation charges ``op_ns`` of simulated mutator time."""

    name = "clock"
    heap_mb = 16

    def __init__(self, op_ns):
        super().__init__()
        self.op_ns = op_ns

    def build(self, vm):
        self.vm = vm

    def run_op(self, op_index):
        self.vm.clock.advance_mutator(self.op_ns)


class TestThroughput:
    def test_ops_per_second(self):
        workload = ClockWorkload(op_ns=20_000_000)
        result = run_workload(workload, "g1", operations=100)  # 2 s
        assert result.throughput_ops_s == pytest.approx(50.0)

    def test_zero_time(self):
        result = run_workload(ClockWorkload(op_ns=0), "g1", operations=100)
        assert result.elapsed_ms == 0
        assert result.throughput_ops_s == 0.0


class TestRendering:
    def test_render_table_alignment(self):
        text = render_table(["name", "value"], [["a", 1], ["bb", 22]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert "name" in lines[0]
        assert "bb" in lines[3]

    def test_render_table_empty_rows(self):
        text = render_table(["only", "headers"], [])
        assert "only" in text

    def test_render_percentile_series(self):
        series = {"g1": {50.0: 1.0, 99.0: 5.0}, "rolp": {50.0: 0.5, 99.0: 1.0}}
        text = render_percentile_series(series, title="demo")
        assert "demo" in text
        assert "p50" in text and "p99" in text
        assert "rolp" in text

    def test_render_histogram_series(self):
        series = {"g1": [("0-10", 3), (">10", 1)]}
        text = render_histogram_series(series)
        assert "0-10" in text and "g1" in text

    def test_render_percentile_series_differing_keys(self):
        """Regression: collectors with different percentile sets used to
        KeyError; the columns are now the union, blanks for missing."""
        series = {
            "g1": {50.0: 1.0, 99.0: 5.0},
            "zgc": {50.0: 0.1},  # no p99 recorded
            "empty": {},  # no pauses survived the warmup cutoff
        }
        text = render_percentile_series(series, title="demo")
        lines = text.splitlines()
        assert "p50" in lines[1] and "p99" in lines[1]
        zgc_row = next(line for line in lines if line.startswith("zgc"))
        assert "0.10" in zgc_row and "-" in zgc_row
        empty_row = next(line for line in lines if line.startswith("empty"))
        assert "-" in empty_row

    def test_render_percentile_series_all_empty(self):
        text = render_percentile_series({"g1": {}}, title="demo")
        assert "demo" in text and "g1" in text

    def test_render_histogram_series_differing_labels(self):
        """Regression: differing interval labels used to misalign the
        columns; the header is now the ordered union of all labels."""
        series = {
            "g1": [("0-10", 3), ("10-100", 2), (">100", 1)],
            "custom": [("0-5", 4), (">5", 0)],
            "empty": [],
        }
        text = render_histogram_series(series, title="demo")
        lines = text.splitlines()
        header = lines[1]
        for label in ("0-10", "10-100", ">100", "0-5", ">5"):
            assert label in header
        g1_row = next(line for line in lines if line.startswith("g1"))
        assert "-" in g1_row  # g1 lacks the custom labels
        empty_row = next(line for line in lines if line.startswith("empty"))
        assert "-" in empty_row

    def test_render_histogram_series_counts_stay_under_their_labels(self):
        series = {
            "a": [("x", 7)],
            "b": [("y", 9)],
        }
        text = render_histogram_series(series)
        lines = text.splitlines()
        header = lines[0]
        x_col = header.index("x")
        a_row = next(line for line in lines if line.startswith("a"))
        b_row = next(line for line in lines if line.startswith("b"))
        assert a_row[x_col] == "7"
        assert b_row[x_col] == "-"
