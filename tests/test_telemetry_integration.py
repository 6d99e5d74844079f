"""End-to-end telemetry: events and metrics recorded by real runs, and
the zero-cost guarantee (telemetry off == bit-identical numbers)."""

import json

import pytest

from repro.heap.object_model import SimObject
from repro.runtime.biased_lock import BiasedLockManager
from repro.runtime.method import Method
from repro.runtime.thread import SimThread
from repro.core.conflicts import ConflictResolver
from repro.bench.workload_registry import run_big_workload
from repro.telemetry import Telemetry, TelemetrySession


def run_traced(name="graphchi-cc", collector="rolp", operations=4000):
    session = TelemetrySession()
    telemetry = session.for_run("%s/%s" % (name, collector))
    result, workload = run_big_workload(
        name, collector, operations=operations, telemetry=telemetry
    )
    return session, result, workload


class TestWorkloadTrace:
    def test_gc_spans_match_recorded_pauses(self):
        session, result, workload = run_traced()
        # the "rolp" setup runs on the NG2C collector under the hood
        gc_name = workload.vm.collector.name
        spans = [e for e in session.sink.events() if e.name.startswith("gc/")]
        assert len(spans) == len(result.pauses)
        by_start = {e.ts_ns: e for e in spans}
        for pause in result.pauses:
            span = by_start[pause.start_ns]
            assert span.dur_ns == pytest.approx(pause.duration_ns)
            assert span.args["collector"] == gc_name
            assert span.name == "gc/%s" % pause.kind

    def test_jit_compile_instants_present(self):
        session, _, workload = run_traced()
        compiles = [e for e in session.sink.events() if e.name == "jit/compile"]
        assert len(compiles) == len(workload.vm.jit.compiled_methods)
        assert all(e.phase == "i" for e in compiles)

    def test_pause_histogram_counts_match(self):
        session, result, workload = run_traced()
        histogram = session.metrics.histogram("gc_pause_ms")
        gc_name = workload.vm.collector.name
        assert histogram.count(collector=gc_name) == len(result.pauses)
        assert session.metrics.counter("gc_pauses_total").total() == len(result.pauses)

    def test_allocation_counter_matches_vm(self):
        session, _, workload = run_traced()
        allocations = session.metrics.counter("vm_allocations_total")
        assert allocations.total() == workload.vm.allocations

    def test_rolp_events_present(self):
        session, _, workload = run_traced()
        names = {e.name for e in session.sink.events()}
        assert "rolp/inference" in names
        instrumented = session.metrics.gauge("rolp_instrumented_methods")
        assert instrumented.value() == len(workload.vm.profiler.instrumented_methods)

    def test_chrome_export_round_trips(self, tmp_path):
        session, _, _ = run_traced(operations=2000)
        path = tmp_path / "trace.json"
        session.write_trace(str(path))
        doc = json.loads(path.read_text())
        phases = {e["ph"] for e in doc["traceEvents"]}
        assert "M" in phases and "X" in phases


class TestZeroCost:
    def test_numbers_identical_with_and_without_telemetry(self):
        session = TelemetrySession()
        traced, _ = run_big_workload(
            "cassandra-wi",
            "rolp",
            operations=4000,
            telemetry=session.for_run("cassandra-wi/rolp"),
        )
        plain, _ = run_big_workload("cassandra-wi", "rolp", operations=4000)
        assert [(p.start_ns, p.duration_ns, p.kind) for p in traced.pauses] == [
            (p.start_ns, p.duration_ns, p.kind) for p in plain.pauses
        ]
        assert traced.vm_summary == plain.vm_summary
        assert traced.elapsed_ms == plain.elapsed_ms
        assert traced.max_memory_bytes == plain.max_memory_bytes


class TestComponentEvents:
    def test_bias_revocation_event_and_counters(self):
        telemetry = Telemetry.for_run("unit")
        manager = BiasedLockManager()
        manager.bind_telemetry(telemetry)
        obj = SimObject(64, 0, context=0x0042_0007)
        manager.lock(SimThread(1), obj)
        manager.revoke(obj)
        metrics = telemetry.metrics
        assert metrics.counter("vm_bias_locks_total").total() == 1
        assert metrics.counter("vm_bias_contexts_clobbered_total").total() == 1
        assert metrics.counter("vm_bias_revocations_total").total() == 1
        (event,) = [e for e in telemetry.tracer.events() if e.name == "vm/bias-revocation"]
        assert event.category == "vm"

    def test_conflict_resolver_events(self):
        telemetry = Telemetry.for_run("unit")
        resolver = ConflictResolver(p_fraction=0.2, min_set_size=1)
        resolver.bind_telemetry(telemetry)
        method = Method("m", "pkg.Cls", lambda ctx: None)
        sites = [method.call_site(i) for i in range(10)]
        resolver.on_inference({1}, sites)  # conflict appears -> search starts
        resolver.on_inference(set(), sites)  # conflict gone -> narrowing
        for _ in range(8):
            resolver.on_inference(set(), sites)
            if 1 in resolver.resolved_sites:
                break
        assert 1 in resolver.resolved_sites
        metrics = telemetry.metrics
        assert metrics.counter("rolp_conflicts_total").total() == 1
        assert metrics.counter("rolp_conflicts_resolved_total").total() == 1
        assert metrics.counter("rolp_conflict_subsets_tried_total").total() >= 1
        names = [e.name for e in telemetry.tracer.events()]
        assert "rolp/conflict-start" in names
        resolved = [
            e for e in telemetry.tracer.events() if e.name == "rolp/conflict-resolved"
        ]
        assert len(resolved) == 1
        assert resolved[0].args["site_id"] == 1
        assert resolved[0].args["given_up"] is False
