"""Tests for fragmentation metrics and context blame attribution."""

from repro.heap.fragmentation import (
    dead_bytes_by_context,
    fragmented_regions,
    guilty_contexts,
)
from repro.heap.object_model import SimObject
from repro.heap.region import Region, Space


def obj(size, death=None, context=0):
    return SimObject(
        size=size, alloc_time_ns=0, death_time_ns=death or float("inf"), context=context
    )


def region_with(space, objects, gen=0, index=0, capacity=1 << 20):
    region = Region(index, capacity)
    region.retarget(space, gen)
    for o in objects:
        region.allocate(o)
    return region


class TestFragmentedRegions:
    def test_threshold_filtering(self):
        high = region_with(Space.OLD, [obj(600, death=10), obj(400)])
        low = region_with(Space.OLD, [obj(100, death=10), obj(900)], index=1)
        result = fragmented_regions([high, low], now_ns=100, threshold=0.25)
        assert result == [high]

    def test_fully_dead_region_is_fragmented_by_this_metric(self):
        dead = region_with(Space.OLD, [obj(100, death=10)])
        assert fragmented_regions([dead], 100, threshold=0.25) == [dead]


class TestBlame:
    def test_dead_bytes_grouped_by_context(self):
        region = region_with(
            Space.DYNAMIC,
            [
                obj(100, death=10, context=0x0001_0000),
                obj(200, death=10, context=0x0001_0000),
                obj(50, death=10, context=0x0002_0000),
                obj(400, context=0x0001_0000),  # live: not blamed
            ],
            gen=2,
        )
        blame = dead_bytes_by_context([region], now_ns=100)
        assert blame == {0x0001_0000: 300, 0x0002_0000: 50}

    def test_unprofiled_context_skipped(self):
        region = region_with(Space.DYNAMIC, [obj(100, death=10, context=0)], gen=2)
        assert dead_bytes_by_context([region], 100) == {}

    def test_biased_locked_objects_skipped(self):
        o = obj(100, death=10, context=0x0003_0000)
        o.bias_lock(0x7F00_0001)
        region = region_with(Space.DYNAMIC, [o], gen=2)
        assert dead_bytes_by_context([region], 100) == {}

    def test_guilty_contexts_only_over_threshold_regions(self):
        fragmented = region_with(
            Space.DYNAMIC, [obj(500, death=10, context=0x0005_0000), obj(500)], gen=1
        )
        healthy = region_with(
            Space.DYNAMIC,
            [obj(10, death=10, context=0x0006_0000), obj(990)],
            gen=1,
            index=1,
        )
        blame = guilty_contexts([fragmented, healthy], now_ns=100, threshold=0.25)
        assert 0x0005_0000 in blame
        assert 0x0006_0000 not in blame
