"""Tests for allocation-paced cycle triggering (the G1/NG2C mechanism
that keeps the GC — and with ROLP, the inference clock — running when
pretenured allocation bypasses eden entirely)."""

from repro.gc.g1 import G1Collector
from repro.gc.ng2c import NG2CCollector
from repro.heap import BandwidthModel, RegionHeap


def make(cls, heap_mb=16, **kwargs):
    return cls(RegionHeap(heap_mb << 20), BandwidthModel(), young_regions=2, **kwargs)


class TestPacedTrigger:
    def test_pretenured_allocation_still_drives_cycles(self):
        """All allocation flows to a dynamic generation; eden never
        fills — cycles must still happen once occupancy crosses IHOP."""
        ng2c = make(NG2CCollector, use_profiler_advice=False)
        for _ in range(20_000):
            obj = ng2c.allocate(1024, gen_hint=5)
            obj.kill_at(ng2c.clock.now_ns + 50_000)
            ng2c.clock.advance_mutator(200)
        assert ng2c.gc_cycles >= 2

    def test_below_ihop_no_forced_cycles(self):
        g1 = make(G1Collector, heap_mb=64)
        # a trickle of young garbage: occupancy stays near zero
        for _ in range(512):
            g1.allocate(256, death_time_ns=g1.clock.now_ns)
            g1.clock.advance_mutator(100)
        assert g1.gc_cycles == 0

    def test_pacing_bounds_cycle_rate(self):
        """Above the IHOP, cycles fire at most once per eden-budget of
        allocation — never per-allocation."""
        ng2c = make(NG2CCollector, use_profiler_advice=False)
        # pin occupancy above the IHOP with live dynamic data
        keep = [ng2c.allocate(1 << 20 // 2, gen_hint=9) for _ in range(18)]
        cycles_before = ng2c.gc_cycles
        bytes_allocated = 0
        for _ in range(4096):
            obj = ng2c.allocate(1024, gen_hint=5)
            obj.kill_at(ng2c.clock.now_ns + 10_000)
            ng2c.clock.advance_mutator(100)
            bytes_allocated += 1024
        pace = ng2c.young_regions * ng2c.heap.region_bytes
        max_expected = bytes_allocated // pace + 2
        assert ng2c.gc_cycles - cycles_before <= max_expected
        assert all(o.region is not None for o in keep)
