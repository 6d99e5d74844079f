"""Shared generational (young-generation copying) machinery.

G1, CMS and NG2C all use a copying young generation: eden fills up, a
stop-the-world young collection evacuates live objects into survivor
regions (or promotes them to the old generation once they reach the
tenuring threshold), and the eden regions are reclaimed wholesale.

The pause time of a young collection is the safepoint + root-scan fixed
cost plus the evacuation copy cost (bytes copied over effective memory
bandwidth) plus — when ROLP's survivor tracking is on — the per-survivor
profiling cost of reading the header context and updating the Object
Lifetime Distribution table.
"""

from __future__ import annotations

from typing import Iterable, List, Tuple

from repro.heap.header import AGE_MASK, AGE_SHIFT
from repro.heap.object_model import SimObject
from repro.heap.region import Region, Space
from repro.gc.collector import Collector

#: one age-field increment (the add grow_older performs while unsaturated)
_AGE_ONE = 1 << AGE_SHIFT


class GenerationalCollector(Collector):
    """Copying young generation + subclass-defined old-space policy.

    Parameters
    ----------
    young_regions:
        Eden region budget; a young GC triggers when eden reaches it.
    tenuring_threshold:
        Survivor age at which an object is promoted to the old space.
    """

    name = "generational"
    #: copying collectors age survivors on every copy, so the verifier
    #: may require age == min(copies, MAX_AGE)
    ages_on_copy = True

    def __init__(
        self,
        heap,
        bandwidth=None,
        clock=None,
        young_regions: int = 0,
        tenuring_threshold: int = 6,
    ) -> None:
        super().__init__(heap, bandwidth, clock)
        if young_regions <= 0:
            young_regions = max(4, len(heap.regions) // 4)
        self.young_regions = young_regions
        self.tenuring_threshold = tenuring_threshold
        self.young_collections = 0
        #: bytes copied, by source ("young", "old", "dynamic") — for
        #: diagnosing where pause time comes from
        self.copy_breakdown: dict = {"young": 0, "old": 0, "dynamic": 0}

    # -- triggering -----------------------------------------------------------

    def _eden_full(self) -> bool:
        if self._fast_paths:
            # O(1) incrementally maintained count, == the region walk
            return self.heap.region_count(Space.EDEN) >= self.young_regions
        return len(self.heap.regions_in(Space.EDEN)) >= self.young_regions

    def _maybe_collect(self) -> None:
        if self._eden_full():
            self.collect_young()

    # -- young collection --------------------------------------------------------

    def collect_young(self) -> None:
        """Stop-the-world evacuation of eden + survivor regions."""
        if self.verifier.enabled:
            self.verifier.at_gc_start(self)
        now = self.clock.now_ns
        sources: List[Region] = self.heap.regions_in(Space.EDEN) + self.heap.regions_in(
            Space.SURVIVOR
        )
        survivors = [o for r in sources for o in r.objects if o.is_live(now)]

        # To-space safety needs no explicit retire: the sources are
        # released before any copy, and releasing a region that is the
        # current bump target drops it from the allocation cache.  The
        # old generation's bump region (never a young-GC source) keeps
        # filling across cycles instead of leaking a partial region per
        # collection.

        tracking = self.profiler.survivor_tracking_enabled()
        bytes_copied = 0
        profiled = 0
        gc_threads = self.bandwidth.gc_threads
        # Attribution reads the pre-aging headers, so it must precede
        # both copy-loop variants (which age at different points).
        self._attribute_copies(survivors)
        # Release sources first so their regions are available as
        # to-space (the simulator's analogue of G1's evacuation reserve).
        for region in sources:
            self.heap.release_region(region)
        if self._fast_paths:
            # Batched survivor profiling reads the same pre-aging headers
            # as the interleaved per-object hook (profiling obj i never
            # depends on obj j's aging), then a tight copy loop inlines
            # grow_older and defers the breakdown update to one add.
            if tracking:
                self.profiler.on_gc_survivors(survivors, gc_threads)
                profiled = len(survivors)
            threshold = self.tenuring_threshold
            heap_allocate = self.heap.allocate
            promote = self._promote
            for obj in survivors:
                header = obj.header
                if (header & AGE_MASK) != AGE_MASK:
                    obj.header = header = header + _AGE_ONE
                obj.copies += 1
                bytes_copied += obj.size
                if (header & AGE_MASK) >> AGE_SHIFT >= threshold:
                    promote(obj)
                else:
                    heap_allocate(obj, Space.SURVIVOR)
            self.copy_breakdown["young"] += bytes_copied
        else:
            for index, obj in enumerate(survivors):
                if tracking:
                    self.profiler.on_gc_survivor(index % gc_threads, obj)
                    profiled += 1
                obj.grow_older()
                obj.copies += 1
                bytes_copied += obj.size
                self.copy_breakdown["young"] += obj.size
                if obj.age >= self.tenuring_threshold:
                    self._promote(obj)
                else:
                    self.heap.allocate(obj, Space.SURVIVOR)

        extra_copied, extra_profiled = self._old_phase(now, tracking)
        bytes_copied += extra_copied
        profiled += extra_profiled

        pause_ns = self.bandwidth.pause_ns(
            bytes_copied, regions_scanned=len(sources), survivors_profiled=profiled
        )
        self.young_collections += 1
        self._record_pause(
            self._young_pause_kind(),
            pause_ns,
            bytes_copied=bytes_copied,
            survivors=len(survivors),
        )
        self._end_of_cycle(pause_ns)

    def _young_pause_kind(self) -> str:
        return "young"

    def _promote(self, obj: SimObject) -> None:
        """Move a tenured object to the old space."""
        self.heap.allocate(obj, Space.OLD)
        self.objects_promoted += 1

    def _old_phase(self, now_ns: int, tracking: bool) -> Tuple[int, int]:
        """Subclass hook run inside the young pause (e.g. G1's mixed
        collection).  Returns (extra bytes copied, extra survivors
        profiled)."""
        return 0, 0

    # -- shared old-region evacuation helper ----------------------------------------

    def _evacuate_regions(
        self,
        regions: Iterable[Region],
        now_ns: int,
        tracking: bool,
        dest: Space = Space.OLD,
        dest_gen: int = 0,
        breakdown_key: str = "old",
    ) -> Tuple[int, int]:
        """Evacuate the live objects of ``regions`` into fresh ``dest``
        regions and reclaim the sources.  Returns (bytes copied,
        survivors profiled)."""
        regions = list(regions)
        if not regions:
            return 0, 0
        bytes_copied = 0
        profiled = 0
        gc_threads = self.bandwidth.gc_threads
        live: List[SimObject] = []
        for region in regions:
            live.extend(o for o in region.objects if o.is_live(now_ns))
            self.heap.release_region(region)
        self._attribute_copies(live)
        if self._fast_paths:
            # Same batched-profiling + inlined-aging shape as the young
            # copy loop in collect_young; see the equivalence note there.
            if tracking:
                self.profiler.on_gc_survivors(live, gc_threads)
                profiled = len(live)
            heap_allocate = self.heap.allocate
            for obj in live:
                header = obj.header
                if (header & AGE_MASK) != AGE_MASK:
                    obj.header = header + _AGE_ONE
                obj.copies += 1
                bytes_copied += obj.size
                heap_allocate(obj, dest, dest_gen)
            self.copy_breakdown[breakdown_key] += bytes_copied
            return bytes_copied, profiled
        for index, obj in enumerate(live):
            if tracking:
                self.profiler.on_gc_survivor(index % gc_threads, obj)
                profiled += 1
            obj.grow_older()
            obj.copies += 1
            bytes_copied += obj.size
            self.copy_breakdown[breakdown_key] += obj.size
            self.heap.allocate(obj, dest, dest_gen)
        return bytes_copied, profiled
