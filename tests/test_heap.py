"""Tests for the region heap manager."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.heap.heap import RegionHeap, SimOutOfMemoryError
from repro.heap.object_model import SimObject
from repro.heap.region import Space


def make_heap(mb=8, region_kb=1024):
    return RegionHeap(mb << 20, region_kb << 10)


def obj(size, death=None):
    return SimObject(size=size, alloc_time_ns=0, death_time_ns=death or float("inf"))


class TestConstruction:
    def test_region_count(self):
        assert len(make_heap(8).regions) == 8

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            RegionHeap(100, 1 << 20)

    def test_all_regions_free_initially(self):
        heap = make_heap()
        assert heap.free_regions == 8
        assert heap.committed_bytes == 0


class TestClaimRelease:
    def test_claim(self):
        heap = make_heap()
        region = heap.claim_region(Space.EDEN)
        assert region.space is Space.EDEN
        assert heap.free_regions == 7
        assert heap.committed_bytes == 1 << 20

    def test_release(self):
        heap = make_heap()
        region = heap.claim_region(Space.OLD)
        heap.release_region(region)
        assert heap.free_regions == 8
        assert region.space is Space.FREE

    def test_release_free_region_rejected(self):
        heap = make_heap()
        region = heap.claim_region(Space.OLD)
        heap.release_region(region)
        with pytest.raises(ValueError):
            heap.release_region(region)

    def test_exhaustion_raises(self):
        heap = make_heap(2)
        heap.claim_region(Space.EDEN)
        heap.claim_region(Space.EDEN)
        with pytest.raises(SimOutOfMemoryError):
            heap.claim_region(Space.EDEN)

    def test_max_committed_high_water(self):
        heap = make_heap()
        regions = [heap.claim_region(Space.EDEN) for _ in range(5)]
        for region in regions:
            heap.release_region(region)
        assert heap.max_committed_bytes == 5 << 20
        assert heap.committed_bytes == 0


class TestAllocation:
    def test_bump_into_same_region(self):
        heap = make_heap()
        a, b = obj(1000), obj(1000)
        r1 = heap.allocate(a, Space.EDEN)
        r2 = heap.allocate(b, Space.EDEN)
        assert r1 is r2

    def test_new_region_when_full(self):
        heap = make_heap()
        big = (1 << 20) - 100
        r1 = heap.allocate(obj(big), Space.EDEN)
        r2 = heap.allocate(obj(big), Space.EDEN)
        assert r1 is not r2
        # the two above are humongous; half a region is the largest
        # object that is bump-allocated, and two fill a region exactly
        half = heap.allocate(obj(512 << 10), Space.EDEN)
        assert heap.allocate(obj(512 << 10), Space.EDEN) is half
        assert heap.allocate(obj(1), Space.EDEN) is not half

    def test_spaces_do_not_share_regions(self):
        heap = make_heap()
        r1 = heap.allocate(obj(100), Space.EDEN)
        r2 = heap.allocate(obj(100), Space.OLD)
        assert r1 is not r2

    def test_dynamic_gens_do_not_share_regions(self):
        heap = make_heap()
        r1 = heap.allocate(obj(100), Space.DYNAMIC, gen=1)
        r2 = heap.allocate(obj(100), Space.DYNAMIC, gen=2)
        assert r1 is not r2
        assert r1.gen == 1 and r2.gen == 2

    def test_release_only_clears_own_cache_entry(self):
        heap = make_heap()
        current = heap.allocate(obj(100), Space.OLD)
        other = heap.claim_region(Space.OLD)
        heap.release_region(other)
        # The bump region is still current: next alloc reuses it.
        assert heap.allocate(obj(100), Space.OLD) is current


class TestHumongous:
    def test_large_object_gets_own_region(self):
        heap = make_heap()
        region = heap.allocate(obj(600 << 10), Space.EDEN)
        assert region.space is Space.HUMONGOUS

    def test_small_object_is_not_humongous(self):
        """Exactly half a region is the largest ordinary object."""
        heap = make_heap()
        assert heap.allocate(obj(512 << 10), Space.EDEN).space is Space.EDEN
        big = heap.allocate(obj((512 << 10) + 1), Space.EDEN)
        assert big.space is Space.HUMONGOUS

    def test_spanning_humongous_claims_multiple_regions(self):
        heap = make_heap()
        before = heap.free_regions
        heap.allocate(obj((2 << 20) + 100), Space.EDEN)
        assert before - heap.free_regions == 3

    def test_spanning_humongous_oom(self):
        heap = make_heap(2)
        with pytest.raises(SimOutOfMemoryError):
            heap.allocate(obj(4 << 20), Space.EDEN)


class TestQueriesAndStats:
    def test_regions_in(self):
        heap = make_heap()
        heap.allocate(obj(100), Space.EDEN)
        heap.allocate(obj(100), Space.DYNAMIC, gen=3)
        assert len(heap.regions_in(Space.EDEN)) == 1
        assert len(heap.regions_in(Space.DYNAMIC)) == 1
        assert len(heap.regions_in(Space.DYNAMIC, gen=3)) == 1
        assert len(heap.regions_in(Space.DYNAMIC, gen=4)) == 0

    def test_occupancy(self):
        heap = make_heap(8)
        heap.claim_region(Space.OLD)
        heap.claim_region(Space.OLD)
        assert heap.occupancy == pytest.approx(0.25)

    def test_used_bytes(self):
        heap = make_heap()
        heap.allocate(obj(123), Space.EDEN)
        heap.allocate(obj(456), Space.OLD)
        assert heap.used_bytes() == 579


class TestAccountingInvariant:
    @given(
        sizes=st.lists(
            st.integers(min_value=1, max_value=300 << 10), min_size=1, max_size=40
        )
    )
    def test_used_equals_sum_of_sizes(self, sizes):
        heap = RegionHeap(64 << 20)
        total = 0
        for size in sizes:
            heap.allocate(obj(size), Space.EDEN)
            total += size
        assert heap.used_bytes() == total

    @given(
        claims=st.lists(st.booleans(), min_size=1, max_size=60)
    )
    def test_committed_matches_nonfree_regions(self, claims):
        heap = RegionHeap(64 << 20)
        held = []
        for do_claim in claims:
            if do_claim or not held:
                if heap.free_regions:
                    held.append(heap.claim_region(Space.OLD))
            else:
                heap.release_region(held.pop())
        nonfree = sum(1 for r in heap.regions if r.space is not Space.FREE)
        assert heap.committed_bytes == nonfree * heap.region_bytes
