"""Tests for the four collector models: young collections, promotion,
mixed collections, CMS's full compactions, ZGC's concurrent cycles, and
NG2C's pretenuring placement."""

from repro.gc.cms import CMSCollector
from repro.gc.g1 import G1Collector
from repro.gc.ng2c import NG2CCollector, OLD_GEN
from repro.gc.zgc import ZGCCollector
from repro.heap import BandwidthModel, RegionHeap, Space
from repro.heap.object_model import IMMORTAL


def make(collector_cls, heap_mb=8, **kwargs):
    heap = RegionHeap(heap_mb << 20)
    return collector_cls(heap, BandwidthModel(), **kwargs)


def fill_eden(collector, total_bytes, obj_size=1024, lives_ns=0.0, **kwargs):
    objs = []
    for _ in range(total_bytes // obj_size):
        death = collector.clock.now_ns + lives_ns if lives_ns else IMMORTAL
        objs.append(collector.allocate(obj_size, death_time_ns=death, **kwargs))
        # Mutator time passes between allocations, so short-lived
        # objects are genuinely dead by the next collection.
        collector.clock.advance_mutator(200)
    return objs


class TestG1Young:
    def test_young_gc_triggers_at_eden_budget(self):
        g1 = make(G1Collector, young_regions=2)
        fill_eden(g1, 3 << 20, lives_ns=1)  # everything dies young
        assert g1.young_collections >= 1
        assert g1.pauses

    def test_dead_objects_reclaimed_without_copy(self):
        g1 = make(G1Collector, young_regions=2)
        fill_eden(g1, 2 << 20, lives_ns=1)
        g1.collect_young()
        # dead young objects cost no copying
        assert g1.copy_breakdown["young"] == 0

    def test_survivors_copied_and_aged(self):
        g1 = make(G1Collector, young_regions=2)
        objs = fill_eden(g1, 1 << 20)  # immortal
        g1.collect_young()
        assert all(o.age == 1 for o in objs)
        assert all(o.copies == 1 for o in objs)
        assert all(o.region.space is Space.SURVIVOR for o in objs)

    def test_promotion_at_tenuring_threshold(self):
        g1 = make(G1Collector, young_regions=2, tenuring_threshold=3)
        objs = fill_eden(g1, 1 << 20)
        for _ in range(3):
            g1.collect_young()
        assert all(o.region.space is Space.OLD for o in objs)
        assert g1.objects_promoted == len(objs)

    def test_pause_grows_with_live_bytes(self):
        small = make(G1Collector, young_regions=4)
        fill_eden(small, 1 << 20)
        small.collect_young()
        large = make(G1Collector, young_regions=4)
        fill_eden(large, 3 << 20)
        large.collect_young()
        assert large.pauses[-1].duration_ns > small.pauses[-1].duration_ns

    def test_gc_cycle_counter(self):
        g1 = make(G1Collector, young_regions=2)
        g1.collect_young()
        g1.collect_young()
        assert g1.gc_cycles == 2


class TestG1Mixed:
    def test_mixed_collects_garbage_rich_old_regions(self):
        g1 = make(G1Collector, heap_mb=8, young_regions=2, tenuring_threshold=1, ihop=0.3)
        # Medium-lived objects: promoted, then die.
        objs = fill_eden(g1, 2 << 20)
        g1.collect_young()  # age 1 -> promoted to old
        for o in objs:
            o.kill_at(g1.clock.now_ns)
        # More allocation raises occupancy and drives the mixed phase.
        fill_eden(g1, 4 << 20, lives_ns=1)
        old_used = sum(r.used for r in g1.heap.regions_in(Space.OLD))
        assert g1.mixed_collections >= 1 or old_used == 0

    def test_full_collection_compacts_old(self):
        g1 = make(G1Collector, young_regions=2, tenuring_threshold=1)
        objs = fill_eden(g1, 1 << 20)
        g1.collect_young()
        half = objs[: len(objs) // 2]
        for o in half:
            o.kill_at(g1.clock.now_ns)
        before = len(g1.heap.regions_in(Space.OLD))
        g1.collect_full("test")
        after = len(g1.heap.regions_in(Space.OLD))
        assert after <= before
        assert any(p.kind == "full" for p in g1.pauses)


class TestCMS:
    def test_concurrent_cycle_short_pauses(self):
        cms = make(CMSCollector, young_regions=2, concurrent_trigger=0.1)
        fill_eden(cms, 3 << 20)
        marks = [p for p in cms.pauses if p.kind.startswith("cms-")]
        assert marks
        young = [p for p in cms.pauses if p.kind == "young"]
        if young:
            assert min(m.duration_ns for m in marks) < max(
                y.duration_ns for y in young
            ) * 2

    def test_sweep_releases_fully_dead_regions(self):
        cms = make(CMSCollector, young_regions=2, tenuring_threshold=1)
        objs = fill_eden(cms, 1 << 20)
        cms.collect_young()  # promote to old
        for o in objs:
            o.kill_at(cms.clock.now_ns)
        cms._concurrent_cycle()
        assert sum(r.used for r in cms.heap.regions_in(Space.OLD)) == 0

    def test_partial_sweep_accumulates_waste(self):
        cms = make(CMSCollector, young_regions=2, tenuring_threshold=1)
        objs = fill_eden(cms, 1 << 20)
        cms.collect_young()
        for o in objs[::2]:
            o.kill_at(cms.clock.now_ns)
        cms._concurrent_cycle()
        assert cms.wasted_bytes > 0

    def test_full_compaction_resets_waste_with_long_pause(self):
        cms = make(CMSCollector, young_regions=2, tenuring_threshold=1)
        objs = fill_eden(cms, 2 << 20)
        cms.collect_young()
        for o in objs[::2]:
            o.kill_at(cms.clock.now_ns)
        cms._concurrent_cycle()
        cms.collect_full("test")
        assert cms.wasted_bytes == 0
        assert cms.full_compactions == 1
        full = [p for p in cms.pauses if p.kind == "cms-full"]
        assert full
        # Serial compaction: long relative to the young pauses.
        young = [p for p in cms.pauses if p.kind == "young"]
        assert full[0].duration_ns > max(y.duration_ns for y in young)


class TestZGC:
    def test_pauses_are_tiny_and_constant(self):
        zgc = make(ZGCCollector, heap_mb=8, occupancy_trigger=0.2)
        fill_eden(zgc, 6 << 20, lives_ns=1)
        assert zgc.pauses
        durations = {p.duration_ns for p in zgc.pauses}
        assert len(durations) == 1
        assert durations.pop() < 2e6  # < 2 ms

    def test_mutator_tax(self):
        assert ZGCCollector(RegionHeap(8 << 20)).mutator_overhead_factor > 1.0
        assert G1Collector(RegionHeap(8 << 20)).mutator_overhead_factor == 1.0

    def test_floating_garbage_delays_reclaim(self):
        zgc = make(ZGCCollector, heap_mb=8, occupancy_trigger=0.01)
        zgc.min_cycle_alloc_bytes = 0
        objs = fill_eden(zgc, 1 << 20)
        live_before = zgc.heap.used_bytes()
        for o in objs:
            o.kill_at(zgc.clock.now_ns)
        # Partially-dead pages wait one cycle.
        zgc._concurrent_cycle()
        zgc._concurrent_cycle()
        assert zgc.heap.used_bytes() < live_before

    def test_headroom_in_max_memory(self):
        zgc = make(ZGCCollector, heap_mb=8)
        fill_eden(zgc, 2 << 20)
        assert zgc.max_memory_bytes() > zgc.heap.max_committed_bytes

    def test_allocation_failure_recovers(self):
        zgc = make(ZGCCollector, heap_mb=4, occupancy_trigger=0.9)
        # Dead churn beyond the heap size: full-cycle fallback must cope.
        fill_eden(zgc, 12 << 20, lives_ns=1)
        assert zgc.concurrent_cycles >= 1


class TestNG2C:
    def test_gen_zero_goes_to_eden(self):
        ng2c = make(NG2CCollector, young_regions=4)
        obj = ng2c.allocate(1024, gen_hint=0)
        assert obj.region.space is Space.EDEN

    def test_dynamic_generation_placement(self):
        ng2c = make(NG2CCollector, young_regions=4)
        obj = ng2c.allocate(1024, gen_hint=5)
        assert obj.region.space is Space.DYNAMIC
        assert obj.region.gen == 5
        assert ng2c.pretenured_objects == 1

    def test_old_gen_placement(self):
        ng2c = make(NG2CCollector, young_regions=4)
        obj = ng2c.allocate(1024, gen_hint=OLD_GEN)
        assert obj.region.space is Space.OLD

    def test_pretenured_objects_skip_young_collection(self):
        ng2c = make(NG2CCollector, young_regions=2)
        obj = ng2c.allocate(1024, gen_hint=3)
        fill_eden(ng2c, 3 << 20, lives_ns=1)
        assert obj.copies == 0
        assert obj.age == 0

    def test_wholesale_reclaim_of_dead_generation(self):
        ng2c = make(NG2CCollector, young_regions=2)
        objs = [ng2c.allocate(1024, gen_hint=4) for _ in range(512)]
        for o in objs:
            o.kill_at(ng2c.clock.now_ns)
        ng2c.collect_young()
        assert ng2c.regions_reclaimed_wholesale >= 1
        assert ng2c.copy_breakdown["dynamic"] == 0

    def test_annotation_mode_ignores_profiler(self):
        ng2c = make(NG2CCollector, young_regions=4, use_profiler_advice=False)
        obj = ng2c.allocate(1024, context=0x0001_0000, gen_hint=7)
        assert obj.region.gen == 7

    def test_advice_mode_ignores_hints(self):
        ng2c = make(NG2CCollector, young_regions=4, use_profiler_advice=True)
        # no VM/profiler attached: advice falls back to the null profiler
        obj = ng2c.allocate(1024, context=0x0001_0000, gen_hint=7)
        assert obj.region.space is Space.EDEN

    def test_full_collection_covers_dynamic_gens(self):
        ng2c = make(NG2CCollector, young_regions=2)
        live = [ng2c.allocate(1024, gen_hint=3) for _ in range(512)]
        dead = [ng2c.allocate(1024, gen_hint=3) for _ in range(512)]
        for o in dead:
            o.kill_at(ng2c.clock.now_ns)
        ng2c.collect_full("test")
        assert all(o.region is not None for o in live)
        used = sum(r.used for r in ng2c.heap.regions_in(Space.DYNAMIC))
        assert used == sum(o.size for o in live)
