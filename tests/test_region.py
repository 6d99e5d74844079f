"""Tests for heap regions."""

import pytest

from repro.heap.object_model import SimObject
from repro.heap.region import DEFAULT_REGION_BYTES, Region, Space


def obj(size=100, death=None):
    return SimObject(size=size, alloc_time_ns=0, death_time_ns=death or float("inf"))


class TestAllocation:
    def test_bump_allocation(self):
        region = Region(0, capacity=1000)
        region.retarget(Space.EDEN)
        a, b = obj(400), obj(500)
        region.allocate(a)
        region.allocate(b)
        assert region.used == 900
        assert region.objects == [a, b]
        assert a.region is region

    def test_exact_fill_fits_and_one_byte_more_raises(self):
        region = Region(0, capacity=1000)
        region.retarget(Space.EDEN)
        region.allocate(obj(900))
        region.allocate(obj(100))
        assert region.used == region.capacity
        with pytest.raises(MemoryError):
            region.allocate(obj(1))
        assert region.used == region.capacity

    def test_overflow_raises(self):
        region = Region(0, capacity=100)
        region.retarget(Space.EDEN)
        with pytest.raises(MemoryError):
            region.allocate(obj(200))

    def test_default_capacity_1mb(self):
        assert Region(0).capacity == DEFAULT_REGION_BYTES == 1 << 20


class TestAccounting:
    def test_live_and_garbage_bytes(self):
        region = Region(0, capacity=1000)
        region.retarget(Space.EDEN)
        region.allocate(obj(300, death=500))   # dead at t=1000
        region.allocate(obj(200))              # immortal
        assert region.live_bytes(1000) == 200
        assert region.garbage_bytes(1000) == 300

    def test_occupancy(self):
        region = Region(0, capacity=1000)
        region.retarget(Space.EDEN)
        region.allocate(obj(250))
        assert region.occupancy() == 0.25

    def test_fragmentation_empty_region(self):
        region = Region(0, capacity=1000)
        assert region.fragmentation(0) == 0.0

    def test_fragmentation_is_dead_fraction_of_used(self):
        region = Region(0, capacity=1000)
        region.retarget(Space.EDEN)
        region.allocate(obj(300, death=10))
        region.allocate(obj(100))
        assert region.fragmentation(100) == pytest.approx(0.75)

    def test_fully_live_region_not_fragmented(self):
        region = Region(0, capacity=1000)
        region.retarget(Space.EDEN)
        region.allocate(obj(500))
        assert region.fragmentation(100) == 0.0


class TestLifecycle:
    def test_retarget_free_region(self):
        region = Region(0)
        region.retarget(Space.DYNAMIC, gen=5)
        assert region.space is Space.DYNAMIC
        assert region.gen == 5

    def test_retarget_nonfree_rejected(self):
        region = Region(0)
        region.retarget(Space.EDEN)
        with pytest.raises(ValueError):
            region.retarget(Space.OLD)

    def test_reset_returns_to_free(self):
        region = Region(0, capacity=1000)
        region.retarget(Space.SURVIVOR)
        o = obj(100)
        region.allocate(o)
        region.reset()
        assert region.space is Space.FREE
        assert region.used == 0
        assert region.objects == []
        assert o.region is None
        assert region.gen == 0
