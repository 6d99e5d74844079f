"""Flight recorder tests: bounded memory, retention policy, sampling,
zero-cost null path, exporters, and on/off simulation byte-identity."""

import json

import pytest

from repro import build_vm
from repro.bench import cli
from repro.bench.workload_registry import run_big_workload
from repro.runtime.clock import SimClock
from repro.telemetry import (
    FLIGHT_RECORDER_DEFAULT_CAPACITY,
    FlightRecorder,
    NullTracer,
    RetentionPolicy,
    Telemetry,
    TelemetrySession,
    TraceSink,
    Tracer,
)


def _critical_ring(slots):
    """A recorder whose critical ring holds ``slots`` events, and a
    tracer into it."""
    recorder = FlightRecorder(
        capacity=2 * slots, policy=RetentionPolicy(critical_fraction=0.5)
    )
    return recorder, recorder.tracer("r")


class TestRing:
    def test_never_exceeds_capacity(self):
        recorder, tracer = _critical_ring(8)
        for i in range(100):
            tracer.span("gc/young", i, 1, category="gc")
        counters = recorder.counters()
        assert counters["retained_critical"] == 8
        assert counters["events_evicted"] == 92
        assert counters["events_seen"] == 100

    def test_snapshot_is_oldest_first(self):
        recorder, tracer = _critical_ring(4)
        for i in range(10):
            # one timestamp for all: events() falls back to arrival order
            tracer.span("gc/young", 0, 1, category="gc", gc_number=i)
        assert [e.args["gc_number"] for e in recorder.events()] == [6, 7, 8, 9]

    def test_partial_fill(self):
        recorder, tracer = _critical_ring(4)
        tracer.span("gc/young", 0, 1, category="gc", gc_number=1)
        tracer.span("gc/young", 0, 1, category="gc", gc_number=2)
        assert [e.args["gc_number"] for e in recorder.events()] == [1, 2]
        assert recorder.counters()["events_evicted"] == 0

    def test_ring_without_slots_evicts_every_event(self):
        # capacity 1 leaves the sampled ring no slots
        recorder = FlightRecorder(capacity=1, policy=RetentionPolicy(sample_every=1))
        tracer = recorder.tracer("r")
        for i in range(3):
            tracer.hot_instant("vm/alloc", ts_ns=i, category="alloc", size=64)
        counters = recorder.counters()
        assert counters["retained_sampled"] == 0
        assert counters["events_evicted"] == 3


class TestRetention:
    def test_critical_categories_bypass_sampling(self):
        recorder = FlightRecorder(capacity=64)
        tracer = recorder.tracer("r", clock=SimClock())
        for i in range(20):
            tracer.span("gc/young", i * 1000, 500, category="gc", gc_number=i)
        counters = recorder.counters()
        assert counters["retained_critical"] == 20
        assert counters["events_sampled_out"] == 0

    def test_hot_stream_is_sampled(self):
        policy = RetentionPolicy(sample_every=4)
        recorder = FlightRecorder(capacity=1000, policy=policy)
        tracer = recorder.tracer("r", clock=SimClock())
        for i in range(100):
            tracer.hot_instant("vm/alloc", ts_ns=i, category="alloc", size=64)
        counters = recorder.counters()
        assert counters["events_seen"] == 100
        assert counters["events_sampled_out"] == 75
        assert counters["retained_sampled"] == 25

    def test_capacity_bound_under_heavy_run(self):
        """A fig-scale run with a tiny recorder: retained never exceeds
        the configured capacity, and the books balance."""
        recorder = FlightRecorder(capacity=256)
        telemetry = Telemetry(recorder.tracer("lucene/g1"))
        run_big_workload("lucene", "g1", operations=4000, telemetry=telemetry)
        counters = recorder.counters()
        assert 0 < counters["retained"] <= 256
        assert counters["events_seen"] == (
            counters["retained"]
            + counters["events_sampled_out"]
            + counters["events_evicted"]
        )
        assert counters["memory_bytes_estimate"] <= 256 * 200

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            FlightRecorder(capacity=0)


class TestNullPath:
    def test_null_tracer_hot_instant_is_a_noop(self):
        tracer = NullTracer()
        assert tracer.wants_hot_events is False
        tracer.hot_instant("vm/alloc", size=1)  # records nowhere, raises nothing

    def test_vm_without_recorder_skips_hot_stream(self):
        vm, _ = build_vm("g1", heap_mb=16)
        assert vm._rec_alloc is None

    def test_vm_with_recorder_binds_hot_stream(self):
        recorder = FlightRecorder(capacity=64)
        vm, _ = build_vm("g1", heap_mb=16, telemetry=Telemetry(recorder.tracer("r")))
        assert vm._rec_alloc is not None


def _result_fingerprint(result) -> bytes:
    return json.dumps(
        {
            "vm": result.vm_summary,
            "elapsed_ms": result.elapsed_ms,
            "pauses": [(p.start_ns, p.duration_ns, p.bytes_copied) for p in result.pauses],
            "max_memory": result.max_memory_bytes,
            "gc_cycles": result.gc_cycles,
        },
        sort_keys=True,
    ).encode()


class TestByteIdentity:
    def test_recorder_on_off_results_identical(self):
        """Recording must never touch the simulated clock or RNG: the
        run's numbers are byte-identical with the recorder attached."""
        baseline, _ = run_big_workload("lucene", "rolp", operations=3000, seed=7)
        recorder = FlightRecorder(capacity=512)
        recorded, _ = run_big_workload(
            "lucene",
            "rolp",
            operations=3000,
            seed=7,
            telemetry=Telemetry(recorder.tracer("lucene/rolp")),
        )
        assert _result_fingerprint(recorded) == _result_fingerprint(baseline)
        assert recorder.events_seen > 0


class TestExporters:
    def _recorded(self):
        recorder = FlightRecorder(capacity=128)
        tracer = recorder.tracer("lucene/g1", clock=SimClock(), trace_id="cafe01")
        tracer.span("gc/young", 1000, 500, category="gc", gc_number=1, span_id="gc-1/young")
        tracer.instant("jit/compile", ts_ns=2000, category="jit", method="m")
        tracer.hot_instant("vm/alloc", ts_ns=3000, category="alloc", size=64)
        return recorder

    def test_events_carry_ids_and_sort_by_time(self):
        recorder = self._recorded()
        events = recorder.events()
        assert [e.ts_ns for e in events] == sorted(e.ts_ns for e in events)
        gc = next(e for e in events if e.category == "gc")
        assert gc.trace_id == "cafe01"
        assert gc.span_id == "gc-1/young"
        assert "span_id" not in gc.args

    def test_jsonl_reuses_trace_sink_format(self):
        recorder = self._recorded()
        lines = recorder.to_jsonl().splitlines()
        docs = [json.loads(line) for line in lines]
        assert all(d["trace_id"] == "cafe01" for d in docs)
        assert {d["name"] for d in docs} >= {"gc/young", "jit/compile"}

    def test_chrome_export_has_process_metadata(self):
        doc = self._recorded().to_chrome()
        names = [e["args"]["name"] for e in doc["traceEvents"] if e["ph"] == "M"]
        assert "lucene/g1" in names

    def test_dump_ends_with_counters_line(self, tmp_path):
        path = tmp_path / "dump.jfr.jsonl"
        self._recorded().dump(str(path))
        last = path.read_text().splitlines()[-1]
        assert json.loads(last)["flight_recorder"]["capacity"] == 128


class TestSessionWiring:
    def test_session_tees_into_sink_and_recorder(self):
        recorder = FlightRecorder(capacity=64)
        session = TelemetrySession(flight_recorder=recorder)
        telemetry = session.for_run("r", trace_id="beef02")
        telemetry.tracer.bind_clock(SimClock())
        telemetry.tracer.span("gc/young", 0, 100, category="gc")
        assert len(session.sink.events()) == 1
        assert session.sink.events()[0].trace_id == "beef02"
        assert recorder.retained() == 1

    def test_recorder_only_session_keeps_sink_empty(self):
        recorder = FlightRecorder(capacity=64)
        session = TelemetrySession(flight_recorder=recorder, record_trace=False)
        telemetry = session.for_run("r")
        telemetry.tracer.span("gc/young", 0, 100, category="gc")
        assert session.sink.events() == []
        assert recorder.retained() == 1

    def test_telemetry_counters_shape(self):
        session = TelemetrySession(flight_recorder=FlightRecorder(capacity=8))
        counters = session.telemetry_counters()
        assert counters["trace_events"] == 0
        assert counters["flight_recorder"]["capacity"] == 8
        assert TelemetrySession().telemetry_counters()["flight_recorder"] is None

    def test_sink_and_recorder_hand_out_one_tracer(self):
        sink_tracer = TraceSink().tracer("r")
        recorder_tracer = FlightRecorder(capacity=8).tracer("r")
        assert type(sink_tracer) is Tracer and type(recorder_tracer) is Tracer
        assert recorder_tracer.wants_hot_events
        assert not sink_tracer.wants_hot_events
        sink_tracer.hot_instant("vm/alloc", ts_ns=0, category="alloc", size=64)
        assert sink_tracer.events() == []


class TestCapacityResolution:
    def test_flag_values(self, tmp_path, monkeypatch, capsys):
        """The bare flag keeps the default capacity, ``=N`` keeps N
        events, and N must be at least 1."""
        monkeypatch.setattr(cli, "_run_experiments", lambda *args, **kwargs: None)
        dump = tmp_path / "dump.jfr.jsonl"
        for flag, capacity in (
            ("--flight-recorder", FLIGHT_RECORDER_DEFAULT_CAPACITY),
            ("--flight-recorder=1", 1),
        ):
            assert cli.main(["table1", "--no-cache", flag, "--flight-out", str(dump)]) == 0
            trailer = json.loads(dump.read_text().splitlines()[-1])
            assert trailer["flight_recorder"]["capacity"] == capacity
        for value in ("0", "-1"):
            with pytest.raises(SystemExit) as exc:
                cli.main(["table1", "--flight-recorder=" + value])
            assert exc.value.code == 2
