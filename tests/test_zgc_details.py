"""Additional ZGC-model tests: cycle pacing, pause-kind structure, and
the barrier-tax accounting through the VM."""

from repro.gc.zgc import ZGCCollector
from repro.heap import BandwidthModel, RegionHeap
from repro.runtime import JavaVM, Method


def make_zgc(heap_mb=8, **kwargs):
    return ZGCCollector(RegionHeap(heap_mb << 20), BandwidthModel(), **kwargs)


class TestCyclePacing:
    def test_cycles_not_back_to_back(self):
        zgc = make_zgc(occupancy_trigger=0.01, min_cycle_alloc_fraction=0.10)
        for _ in range(4096):
            zgc.allocate(1024, death_time_ns=zgc.clock.now_ns)
            zgc.clock.advance_mutator(100)
        # 4 MB allocated; pacing demands >= 0.8 MB between cycle starts
        assert zgc.concurrent_cycles <= 6

    def test_below_trigger_no_cycles(self):
        zgc = make_zgc(occupancy_trigger=0.99)
        for _ in range(512):
            zgc.allocate(1024)
        assert zgc.concurrent_cycles == 0


class TestPauseStructure:
    def test_three_pauses_per_cycle(self):
        zgc = make_zgc(occupancy_trigger=0.05)
        zgc.min_cycle_alloc_bytes = 0
        zgc._concurrent_cycle()
        kinds = [p.kind for p in zgc.pauses]
        assert kinds == ["zgc-mark-start", "zgc-relocate-start", "zgc-mark-end"]

    def test_cycle_counts_as_one_gc(self):
        zgc = make_zgc()
        zgc._concurrent_cycle()
        zgc._concurrent_cycle()
        assert zgc.gc_cycles == 2

    def test_relocation_cost_is_concurrent(self):
        """Live-object relocation adds no pause time — the copy bytes
        are accounted as concurrent work."""
        zgc = make_zgc(occupancy_trigger=0.05)
        zgc.min_cycle_alloc_bytes = 0
        for _ in range(256):
            zgc.allocate(1024)  # live
        for _ in range(256):
            zgc.allocate(1024, death_time_ns=zgc.clock.now_ns + 1)
        zgc.clock.advance_mutator(1000)
        zgc._concurrent_cycle()  # classifies
        zgc._concurrent_cycle()  # relocates
        durations = {p.duration_ns for p in zgc.pauses}
        assert durations == {zgc.cycle_pause_ns}
        assert zgc.concurrent_bytes_copied > 0


class TestBarrierTax:
    def test_mutator_work_inflated_through_vm(self):
        zgc_vm = JavaVM(make_zgc())
        g1_vm = None
        from repro.gc.g1 import G1Collector

        g1_vm = JavaVM(G1Collector(RegionHeap(8 << 20), BandwidthModel()))

        def body(ctx):
            ctx.work(10_000)

        for vm in (zgc_vm, g1_vm):
            thread = vm.spawn_thread()
            vm.run(thread, Method("op", "app.A", body))
        assert zgc_vm.clock.total_mutator_ns > g1_vm.clock.total_mutator_ns
        ratio = zgc_vm.clock.total_mutator_ns / g1_vm.clock.total_mutator_ns
        assert ratio > 1.15
