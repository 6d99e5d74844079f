"""Tests for the JVM facade: flags, profiling-cost accounting, the four
call-profiling modes, and summary statistics."""

import pytest

from repro import build_vm
from repro.core import RolpConfig, RolpProfiler
from repro.gc import G1Collector
from repro.heap import BandwidthModel, RegionHeap
from repro.runtime import CALL_PROFILING_MODES, JavaVM, Method, VMFlags


def vm_with_profiler(mode="real"):
    heap = RegionHeap(16 << 20)
    gc = G1Collector(heap, BandwidthModel())
    profiler = RolpProfiler(RolpConfig())
    return JavaVM(gc, profiler, VMFlags(call_profiling_mode=mode, compile_threshold=1))


def call_heavy_workload(vm, calls=50):
    thread = vm.spawn_thread()
    leaf = Method("leaf", "app.data.Leaf", lambda ctx: ctx.work(10), bytecode_size=100)

    def body(ctx):
        for i in range(calls):
            ctx.call(1, leaf)

    root = Method("root", "app.data.Root", body, bytecode_size=200)
    for _ in range(5):
        vm.run(thread, root)
    return vm


class TestFlags:
    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError):
            VMFlags(call_profiling_mode="turbo")

    def test_all_modes_constructible(self):
        for mode in CALL_PROFILING_MODES:
            assert VMFlags(call_profiling_mode=mode).call_profiling_mode == mode

    def test_negative_alloc_base_rejected(self):
        # the VM pre-scales this charge once, so it is checked once too
        with pytest.raises(ValueError, match="alloc_base_ns"):
            VMFlags(alloc_base_ns=-1.0)


class TestCallProfilingModes:
    def test_none_mode_charges_nothing(self):
        vm = call_heavy_workload(vm_with_profiler("none"))
        assert vm.profiling_tax_ns == 0

    def test_fast_mode_charges_branch_only(self):
        vm = call_heavy_workload(vm_with_profiler("fast"))
        assert vm.profiling_tax_ns > 0

    def test_slow_mode_costs_more_than_fast(self):
        fast = call_heavy_workload(vm_with_profiler("fast"))
        slow = call_heavy_workload(vm_with_profiler("slow"))
        assert slow.profiling_tax_ns > fast.profiling_tax_ns

    def test_slow_mode_updates_stack_state_in_flight(self):
        vm = vm_with_profiler("slow")
        thread = vm.spawn_thread()
        observed = []

        leaf = Method(
            "leaf",
            "app.data.Leaf",
            lambda ctx: observed.append(ctx.thread.stack_state),
            bytecode_size=100,
        )

        def body(ctx):
            ctx.call(1, leaf)

        root = Method("root", "app.data.Root", body, bytecode_size=200)
        for _ in range(3):
            vm.run(thread, root)
        # Once both methods are jitted, the slow path applies increments.
        assert any(state != 0 for state in observed)
        assert thread.stack_state == 0  # balanced afterwards

    def test_real_mode_fast_path_when_disabled(self):
        vm = vm_with_profiler("real")
        thread = vm.spawn_thread()
        observed = []
        leaf = Method(
            "leaf",
            "app.data.Leaf",
            lambda ctx: observed.append(ctx.thread.stack_state),
            bytecode_size=100,
        )

        def body(ctx):
            ctx.call(1, leaf)

        root = Method("root", "app.data.Root", body, bytecode_size=200)
        for _ in range(3):
            vm.run(thread, root)
        # No conflict resolution enabled any site: no updates happen.
        assert all(state == 0 for state in observed)

    def test_uninstrumented_site_never_charged(self):
        vm, _ = build_vm("g1", heap_mb=16)  # NullProfiler
        call_heavy_workload(vm)
        assert vm.profiling_tax_ns == 0


class TestSummary:
    def test_summary_keys(self):
        vm = call_heavy_workload(vm_with_profiler())
        summary = vm.summary()
        for key in (
            "allocations",
            "bytes_allocated",
            "compiled_methods",
            "profiled_alloc_sites",
            "profiled_call_sites",
            "gc_cycles",
            "total_pause_ms",
            "profiling_tax_ms",
            "now_ms",
        ):
            assert key in summary

    def test_thread_ids_unique(self):
        vm, _ = build_vm("g1", heap_mb=16)
        ids = {vm.spawn_thread().thread_id for _ in range(10)}
        assert len(ids) == 10


class TestBuildVm:
    def test_all_collector_names(self):
        from repro import COLLECTOR_NAMES

        for name in COLLECTOR_NAMES:
            vm, profiler = build_vm(name, heap_mb=16)
            assert vm.collector.name in ("g1", "cms", "zgc", "ng2c")
            if name == "rolp":
                assert profiler is not None
                assert vm.profiler is profiler
            else:
                assert profiler is None

    def test_unknown_collector_rejected(self):
        with pytest.raises(ValueError):
            build_vm("shenandoah")

    def test_rolp_uses_ng2c_with_advice(self):
        vm, profiler = build_vm("rolp", heap_mb=16)
        assert vm.collector.use_profiler_advice

    def test_ng2c_uses_annotations(self):
        vm, _ = build_vm("ng2c", heap_mb=16)
        assert not vm.collector.use_profiler_advice

    def test_young_regions_forwarded(self):
        vm, _ = build_vm("g1", heap_mb=32, young_regions=3)
        assert vm.collector.young_regions == 3
