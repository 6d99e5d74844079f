"""Detailed tests of the shared generational machinery: evacuation
accounting, copy breakdown, bump-region reuse across collections, and
survivor-profiling pause costs."""

from repro.gc.g1 import G1Collector
from repro.heap import BandwidthModel, RegionHeap, Space
from repro.runtime.hooks import NullProfiler
from repro.runtime.vm import JavaVM


class CountingProfiler(NullProfiler):
    """Tracks survivor-processing calls; always-on tracking."""

    def __init__(self):
        self.survivors_seen = 0
        self.gc_ends = 0

    def should_instrument(self, method):
        return True

    def survivor_tracking_enabled(self):
        return True

    def on_gc_survivor(self, worker_id, obj):
        self.survivors_seen += 1

    def on_gc_end(self, gc_number, now_ns, pause_ns):
        self.gc_ends += 1


def collector_with(profiler=None, heap_mb=8, **kwargs):
    heap = RegionHeap(heap_mb << 20)
    gc = G1Collector(heap, BandwidthModel(), **kwargs)
    JavaVM(gc, profiler)
    return gc


class TestEvacuationAccounting:
    def test_bytes_copied_matches_live_sizes(self):
        gc = collector_with(young_regions=4)
        for _ in range(100):
            gc.allocate(1000)
        gc.collect_young()
        assert gc.pauses[-1].bytes_copied == 100 * 1000
        assert gc.copy_breakdown["young"] == 100 * 1000

    def test_old_bump_region_reused_across_collections(self):
        """The old generation's allocation region must keep filling
        across cycles; retiring it each GC leaks a partial region per
        pause (a real bug caught by the cassandra-ri runs)."""
        gc = collector_with(young_regions=2, tenuring_threshold=1)
        for _ in range(64):
            gc.allocate(1024)
        gc.collect_young()  # everyone promoted (threshold 1)
        old_regions_after_first = len(gc.heap.regions_in(Space.OLD))
        for _ in range(64):
            gc.allocate(1024)
        gc.collect_young()
        old_regions_after_second = len(gc.heap.regions_in(Space.OLD))
        # 128 KB total fits one region comfortably
        assert old_regions_after_first == old_regions_after_second == 1

    def test_survivor_space_drained_each_cycle(self):
        gc = collector_with(young_regions=2)
        objs = [gc.allocate(1024) for _ in range(64)]
        gc.collect_young()
        for o in objs:
            o.kill_at(gc.clock.now_ns)
        gc.collect_young()
        assert all(r.used == 0 for r in gc.heap.regions_in(Space.SURVIVOR))


class TestSurvivorProfilingCost:
    def test_profiler_sees_every_survivor(self):
        profiler = CountingProfiler()
        gc = collector_with(profiler, young_regions=4)
        for _ in range(50):
            gc.allocate(1000)
        gc.collect_young()
        assert profiler.survivors_seen == 50
        assert profiler.gc_ends == 1

    def test_tracking_cost_visible_in_pause(self):
        with_profiler = CountingProfiler()
        gc_tracked = collector_with(with_profiler, young_regions=4)
        gc_plain = collector_with(None, young_regions=4)
        for gc in (gc_tracked, gc_plain):
            for _ in range(2000):
                gc.allocate(500)
            gc.collect_young()
        assert (
            gc_tracked.pauses[-1].duration_ns > gc_plain.pauses[-1].duration_ns
        )

    def test_dead_objects_not_profiled(self):
        profiler = CountingProfiler()
        gc = collector_with(profiler, young_regions=4)
        for _ in range(50):
            gc.allocate(1000, death_time_ns=gc.clock.now_ns)
            gc.clock.advance_mutator(10)
        gc.collect_young()
        assert profiler.survivors_seen == 0
