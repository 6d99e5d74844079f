"""Unit tests for the telemetry layer: tracer, sink, exporters,
metrics registry, and the zero-cost null defaults."""

import json

import pytest

from repro.runtime.clock import SimClock
from repro.telemetry import (
    NULL_TELEMETRY,
    MetricsRegistry,
    NullMetrics,
    NullTracer,
    PAUSE_HISTOGRAM_BUCKETS_MS,
    Telemetry,
    TelemetrySession,
    TraceSink,
    Tracer,
)


class TestTracer:
    def test_span_records_times_in_ns(self):
        tracer = Tracer()
        tracer.span("gc/young", start_ns=1_000_000, duration_ns=500_000, collector="g1")
        (event,) = tracer.events()
        assert event.phase == "X"
        assert event.ts_ns == 1_000_000
        assert event.dur_ns == 500_000
        assert event.args == {"collector": "g1"}

    def test_instant_uses_bound_clock(self):
        clock = SimClock()
        clock.advance_mutator(2_500)
        tracer = Tracer()
        tracer.bind_clock(clock)
        tracer.instant("jit/compile", method="m")
        (event,) = tracer.events()
        assert event.phase == "i"
        assert event.ts_ns == clock.now_ns

    def test_first_clock_wins(self):
        first, second = SimClock(), SimClock()
        second.advance_mutator(999)
        tracer = Tracer()
        tracer.bind_clock(first)
        tracer.bind_clock(second)
        tracer.instant("x")
        assert tracer.events()[0].ts_ns == first.now_ns

    def test_explicit_ts_overrides_clock(self):
        tracer = Tracer()
        tracer.instant("x", ts_ns=77)
        assert tracer.events()[0].ts_ns == 77

    def test_chrome_export_shape(self):
        sink = TraceSink()
        tracer = sink.tracer("lucene/g1")
        tracer.span("gc/young", start_ns=2_000, duration_ns=1_000)
        tracer.instant("jit/compile", ts_ns=500)
        doc = sink.to_chrome()
        assert doc["displayTimeUnit"] == "ms"
        events = doc["traceEvents"]
        # metadata first: process_name per pid
        assert events[0]["ph"] == "M"
        assert events[0]["args"]["name"] == "lucene/g1"
        span = next(e for e in events if e["ph"] == "X")
        assert span["ts"] == pytest.approx(2.0)  # µs
        assert span["dur"] == pytest.approx(1.0)
        instant = next(e for e in events if e["ph"] == "i")
        assert instant["s"] == "p"
        json.dumps(doc)  # must be serializable

    def test_jsonl_export_one_object_per_line(self):
        sink = TraceSink()
        tracer = sink.tracer()
        tracer.instant("a", ts_ns=1)
        tracer.instant("b", ts_ns=2)
        lines = sink.to_jsonl().splitlines()
        assert len(lines) == 2
        assert json.loads(lines[0])["name"] == "a"
        assert json.loads(lines[1])["ts_ns"] == 2

    def test_sink_allocates_distinct_pids(self):
        sink = TraceSink()
        one = sink.tracer("run-one")
        two = sink.tracer("run-two")
        assert one.pid != two.pid
        one.instant("x", ts_ns=0)
        two.instant("y", ts_ns=0)
        pids = {e.pid for e in sink.events()}
        assert pids == {one.pid, two.pid}

    def test_write_chrome(self, tmp_path):
        sink = TraceSink()
        sink.tracer("r").instant("x", ts_ns=1)
        path = tmp_path / "trace.json"
        sink.write_chrome(str(path))
        doc = json.loads(path.read_text())
        assert any(e.get("name") == "x" for e in doc["traceEvents"])

    def test_trace_id_stamped_on_every_event(self):
        sink = TraceSink()
        tracer = sink.tracer("r", trace_id="abc123")
        tracer.instant("x", ts_ns=1)
        tracer.span("y", 2, 3)
        assert all(e.trace_id == "abc123" for e in sink.events())
        jsonl = [json.loads(line) for line in sink.to_jsonl().splitlines()]
        assert all(d["trace_id"] == "abc123" for d in jsonl)

    def test_ids_default_empty_and_keep_chrome_args_clean(self):
        sink = TraceSink()
        tracer = sink.tracer()
        tracer.instant("x", ts_ns=1, detail="d")
        event = sink.events()[0]
        assert event.trace_id == "" and event.span_id == ""
        chrome = event.to_chrome()
        # empty ids never appear in chrome args: old documents stay
        # byte-for-byte what they were
        assert "trace_id" not in chrome["args"]
        assert "span_id" not in chrome["args"]
        jsonl = event.to_jsonl()
        assert jsonl["trace_id"] == "" and jsonl["span_id"] == ""

    def test_span_id_kwarg_moves_to_field(self):
        sink = TraceSink()
        sink.tracer().span("gc/young", 0, 10, span_id="gc-1/young", collector="g1")
        event = sink.events()[0]
        assert event.span_id == "gc-1/young"
        assert event.args == {"collector": "g1"}
        assert event.to_chrome()["args"]["span_id"] == "gc-1/young"


class TestMetrics:
    def test_counter_labels(self):
        registry = MetricsRegistry()
        counter = registry.counter("allocs_total", "allocations")
        counter.inc(2, site="a")
        counter.inc(3, site="b")
        counter.inc(site="a")
        assert counter.value(site="a") == 3
        assert counter.total() == 6

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("c").inc(-1)

    def test_gauge_set_and_dec(self):
        gauge = MetricsRegistry().gauge("g")
        gauge.set(10)
        gauge.inc(-4)
        assert gauge.value() == 6

    def test_histogram_bucket_semantics(self):
        histogram = MetricsRegistry().histogram("h", buckets=(1.0, 10.0))
        histogram.observe(1.0)  # le 1.0 -> first bucket
        histogram.observe(5.0)
        histogram.observe(99.0)  # overflow
        assert histogram.counts() == [1, 1, 1]
        assert histogram.count() == 3
        assert histogram.sum() == pytest.approx(105.0)

    def test_histogram_default_buckets_mirror_figure9(self):
        histogram = MetricsRegistry().histogram("gc_pause_ms")
        assert histogram.buckets == PAUSE_HISTOGRAM_BUCKETS_MS

    def test_get_or_create_returns_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("c") is registry.counter("c")

    def test_kind_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(TypeError):
            registry.gauge("x")

    def test_json_export(self):
        registry = MetricsRegistry()
        registry.counter("c", "help text").inc(2, collector="g1")
        registry.histogram("h", buckets=(1.0,)).observe(0.5)
        doc = registry.to_json()
        assert doc["c"]["type"] == "counter"
        assert doc["c"]["samples"] == [{"labels": {"collector": "g1"}, "value": 2}]
        assert doc["h"]["samples"][0]["count"] == 1
        json.dumps(doc)

    def test_prometheus_export(self):
        registry = MetricsRegistry()
        registry.counter("c", "a counter").inc(2, collector="g1")
        histogram = registry.histogram("h", buckets=(1.0, 10.0))
        histogram.observe(0.5)
        histogram.observe(20.0)
        text = registry.to_prometheus()
        assert "# HELP c a counter" in text
        assert "# TYPE c counter" in text
        assert 'c{collector="g1"} 2' in text
        assert 'h_bucket{le="1"} 1' in text
        assert 'h_bucket{le="10"} 1' in text  # cumulative
        assert 'h_bucket{le="+Inf"} 2' in text
        assert "h_sum 20.5" in text
        assert "h_count 2" in text

    def test_write_prometheus(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        path = tmp_path / "metrics.prom"
        registry.write_prometheus(str(path))
        assert "c 1" in path.read_text()

    def test_prometheus_lines_sorted_regardless_of_insert_order(self):
        forward = MetricsRegistry()
        backward = MetricsRegistry()
        samples = [("zeta", "g1"), ("alpha", "rolp"), ("mid", "cms")]
        for name, collector in samples:
            forward.counter(name).inc(1, collector=collector)
            forward.histogram("h", buckets=(1.0,)).observe(0.5, collector=collector)
        for name, collector in reversed(samples):
            backward.counter(name).inc(1, collector=collector)
            backward.histogram("h", buckets=(1.0,)).observe(0.5, collector=collector)
        assert forward.to_prometheus() == backward.to_prometheus()

    def test_histogram_percentile_interpolates_within_bucket(self):
        histogram = MetricsRegistry().histogram("h", buckets=(10.0, 20.0))
        for value in (5.0, 15.0, 15.0, 15.0):
            histogram.observe(value)
        # rank 2 of 4 -> 25% into the 3 observations of the (10, 20]
        # bucket after the first bucket's single count
        assert histogram.percentile(50.0) == pytest.approx(10.0 + 10.0 / 3)
        assert histogram.percentile(0.0) == 0.0
        assert histogram.percentile(25.0) == pytest.approx(10.0)

    def test_histogram_percentile_edge_cases(self):
        histogram = MetricsRegistry().histogram("h", buckets=(1.0, 10.0))
        assert histogram.percentile(99.0) == 0.0  # no observations
        histogram.observe(100.0)  # overflow bucket
        assert histogram.percentile(99.0) == 10.0  # clamped to last edge
        with pytest.raises(ValueError):
            histogram.percentile(101.0)

    def test_histogram_percentile_respects_labels(self):
        histogram = MetricsRegistry().histogram("h", buckets=(1.0, 10.0))
        histogram.observe(0.5, collector="g1")
        histogram.observe(9.0, collector="rolp")
        assert histogram.percentile(100.0, collector="g1") <= 1.0
        assert histogram.percentile(100.0, collector="rolp") > 1.0
        assert histogram.percentile(50.0) == 0.0  # unlabeled set is empty


class TestNullDefaults:
    def test_null_telemetry_is_disabled(self):
        assert NULL_TELEMETRY.enabled is False
        assert NULL_TELEMETRY.tracer.enabled is False
        assert NULL_TELEMETRY.metrics.enabled is False

    def test_null_tracer_accepts_everything(self):
        tracer = NullTracer()
        tracer.bind_clock(SimClock())
        tracer.instant("x", anything=1)
        tracer.span("y", 0, 10, extra="z")

    def test_null_metrics_instruments_are_no_ops(self):
        metrics = NullMetrics()
        counter = metrics.counter("c")
        counter.inc(5, any_label="v")
        gauge = metrics.gauge("g")
        gauge.set(1)
        gauge.inc(-1)
        metrics.histogram("h").observe(3.0)
        assert metrics.to_json() == {}

    def test_enabled_flag_set_when_either_side_is_live(self):
        assert Telemetry().enabled is False
        assert Telemetry(metrics=MetricsRegistry()).enabled is True
        assert Telemetry(tracer=TraceSink().tracer()).enabled is True


class TestSession:
    def test_runs_share_metrics_but_not_pids(self):
        session = TelemetrySession()
        one = session.for_run("lucene/g1")
        two = session.for_run("lucene/rolp")
        assert one.metrics is two.metrics is session.metrics
        assert one.tracer.pid != two.tracer.pid
        assert session.sink.process_names[one.tracer.pid] == "lucene/g1"

    def test_write_trace_and_prometheus(self, tmp_path):
        session = TelemetrySession()
        run = session.for_run("r")
        run.tracer.instant("x", ts_ns=5)
        run.metrics.counter("c").inc()
        trace_path = tmp_path / "trace.json"
        prom_path = tmp_path / "metrics.prom"
        session.write_trace(str(trace_path))
        session.write_prometheus(str(prom_path))
        assert json.loads(trace_path.read_text())["traceEvents"]
        assert "c 1" in prom_path.read_text()

    def test_single_run_convenience(self):
        telemetry = Telemetry.for_run("solo")
        assert telemetry.enabled
        telemetry.tracer.instant("x", ts_ns=0)
        assert telemetry.tracer.store.process_names[telemetry.tracer.pid] == "solo"
