"""Additional CMS-model tests: waste accounting, fragmentation-forced
compaction triggering, and tail-latency structure."""

import random

from repro.gc.cms import CMSCollector
from repro.heap import BandwidthModel, RegionHeap
from repro.heap.heap import SimOutOfMemoryError


def make_cms(heap_mb=8, **kwargs):
    return CMSCollector(RegionHeap(heap_mb << 20), BandwidthModel(), **kwargs)


def promote_population(cms, count=1024, size=1024):
    objs = []
    for _ in range(count):
        objs.append(cms.allocate(size))
        cms.clock.advance_mutator(100)
    cms.collect_young()  # threshold-1 callers promote immediately
    return objs


class TestWasteAccounting:
    def test_waste_fraction_zero_when_empty(self):
        assert make_cms()._old_waste_fraction() == 0.0

    def test_waste_fraction_rises_with_scattered_deaths(self):
        cms = make_cms(young_regions=2, tenuring_threshold=1)
        objs = promote_population(cms)
        for o in objs[::3]:
            o.kill_at(cms.clock.now_ns)
        cms._concurrent_cycle()
        assert 0.2 < cms._old_waste_fraction() < 0.5

    def test_waste_limit_forces_compaction(self):
        cms = make_cms(young_regions=2, tenuring_threshold=1, waste_limit=0.2)
        objs = promote_population(cms)
        for o in objs[::2]:
            o.kill_at(cms.clock.now_ns)
        cms._concurrent_cycle()
        # next allocation sees the waste fraction and compacts
        cms.allocate(1024)
        assert cms.full_compactions >= 1
        assert cms.wasted_bytes == 0


class TestTailStructure:
    def test_full_compaction_dominates_pause_distribution(self):
        """CMS's signature: medians fine, max terrible."""
        cms = make_cms(young_regions=2, tenuring_threshold=2, waste_limit=0.25)
        for round_index in range(6):
            objs = promote_population(cms, count=2048)
            for o in objs[::2]:
                o.kill_at(cms.clock.now_ns)
        durations = sorted(p.duration_ms for p in cms.pauses)
        if cms.full_compactions:
            assert durations[-1] > durations[len(durations) // 2] * 3

    def test_remark_scales_with_live_population(self):
        small = make_cms(young_regions=2, tenuring_threshold=1, concurrent_trigger=0.0)
        promote_population(small, count=128)
        small._concurrent_cycle()
        big = make_cms(young_regions=4, tenuring_threshold=1, concurrent_trigger=0.0)
        promote_population(big, count=3000)
        big._concurrent_cycle()

        def remark(cms):
            return max(
                p.duration_ns for p in cms.pauses if p.kind == "cms-remark"
            )

        assert remark(big) > remark(small)

    def test_auxiliary_pauses_do_not_count_cycles(self):
        cms = make_cms(concurrent_trigger=0.0)
        before = cms.gc_cycles
        cms._concurrent_cycle()
        assert cms.gc_cycles == before


class WalkingCMS(CMSCollector):
    """The reference trigger: recomputes the waste fraction from the
    region walk on every allocation instead of reading the stored value,
    and records why each full compaction ran."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.full_reasons = []

    def _maybe_collect(self):
        if self._eden_full():
            self.collect_young()
        if self.heap.occupancy >= self.concurrent_trigger:
            self._concurrent_cycle()
        if self._old_waste_fraction() >= self.waste_limit:
            self.collect_full("fragmentation")

    def collect_full(self, reason):
        self.full_reasons.append(reason)
        super().collect_full(reason)


def drive_stream(cls, seed=1, steps=3000):
    """One seeded allocate/kill stream on a 64-region heap whose live set
    grows until the heap is exhausted; returns (collector, steps run)."""
    region = 1 << 16
    cms = cls(
        RegionHeap(64 * region, region_bytes=region),
        BandwidthModel(),
        young_regions=4,
        tenuring_threshold=1,
        concurrent_trigger=0.9,
    )
    rng = random.Random(seed)
    held = []
    for step in range(steps):
        cms.clock.advance_mutator(rng.randrange(200, 2000))
        now = cms.clock.now_ns
        size = rng.randrange(256, 8 << 10)
        immortal = rng.random() < 0.7
        death = float("inf") if immortal else now + rng.randrange(1_000, 400_000)
        try:
            obj = cms.allocate(size, 0, death)
        except SimOutOfMemoryError:
            return cms, step
        if immortal:
            held.append(obj)
        if held and rng.random() < 0.3:
            held.pop(rng.randrange(len(held))).kill_at(cms.clock.now_ns)
    return cms, steps


class TestStoredWasteFraction:
    def test_matches_the_per_allocation_walk(self):
        reference, reference_steps = drive_stream(WalkingCMS)
        # the stream covers every trigger: concurrent sweeps, compactions
        # forced by waste, and allocation failures, one of them survived
        assert reference.concurrent_cycles > 0
        assert "fragmentation" in reference.full_reasons
        assert reference.full_reasons.count("allocation-failure") >= 2
        stored, stored_steps = drive_stream(CMSCollector)
        assert stored_steps == reference_steps
        assert stored.pauses == reference.pauses
        assert stored.clock.now_ns == reference.clock.now_ns
        assert stored.wasted_bytes == reference.wasted_bytes
        assert stored.full_compactions == reference.full_compactions
        assert stored.concurrent_cycles == reference.concurrent_cycles
        assert stored.waste_fraction == stored._old_waste_fraction()
