"""G1-like collector (the paper's baseline).

Young collections plus *mixed* collections: once heap occupancy crosses
the initiating threshold (IHOP), subsequent pauses also evacuate a slice
of the old regions with the most garbage.  Because G1 allocates every
object in eden regardless of lifetime, mid/long-lived Big Data objects
are copied repeatedly (survivor hops, promotion, then old-region
compaction), which is exactly the memory-bandwidth-bound copying that
produces the long tail pauses the paper measures.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.heap.region import Region, Space
from repro.gc.generational import GenerationalCollector


class G1Collector(GenerationalCollector):
    """Region-based generational collector with mixed collections."""

    name = "g1"

    def __init__(
        self,
        heap,
        bandwidth=None,
        clock=None,
        young_regions: int = 0,
        tenuring_threshold: int = 6,
        ihop: float = 0.45,
        mixed_garbage_threshold: float = 0.15,
        max_mixed_regions: int = 0,
    ) -> None:
        super().__init__(heap, bandwidth, clock, young_regions, tenuring_threshold)
        #: occupancy fraction that starts mixed collections
        self.ihop = ihop
        #: minimum garbage fraction for an old region to be a candidate
        self.mixed_garbage_threshold = mixed_garbage_threshold
        #: cap on old regions evacuated per mixed pause
        self.max_mixed_regions = max_mixed_regions or max(
            2, len(heap.regions) // 16
        )
        self.mixed_collections = 0
        self._bytes_at_forced_cycle = 0

    def _maybe_collect(self) -> None:
        # The generational eden trigger (_eden_full) first, inlined
        # rather than called: this runs on every allocation.
        heap = self.heap
        if heap.space_counts[Space.EDEN] >= self.young_regions:
            self.collect_young()
        # Eden pressure is not the only trigger: when allocation flows
        # straight into old/dynamic spaces (heavy pretenuring), the
        # cycle machinery — old reclamation, and with ROLP the
        # inference/adaptation clock — must still be driven.  Pace it by
        # allocation volume once occupancy crosses the IHOP, like G1's
        # concurrent-cycle scheduling.
        pace_bytes = self.young_regions * heap.region_bytes
        # One occupancy read serves both comparisons: nothing between
        # them can change the committed-region count.
        occupancy = heap.occupancy
        if (
            occupancy >= self.ihop
            and self.bytes_allocated - self._bytes_at_forced_cycle >= pace_bytes
        ):
            self._bytes_at_forced_cycle = self.bytes_allocated
            self.collect_young()
        else:
            # keep the pacing anchor moving while below the threshold so
            # an IHOP crossing does not immediately fire on stale volume
            if occupancy < self.ihop:
                self._bytes_at_forced_cycle = self.bytes_allocated

    # -- mixed collections, run inside the young pause --------------------------

    #: old-space garbage fraction that forces mixed collections even
    #: below the IHOP (G1's reclaimable-percent policy): garbage must
    #: not pile up silently until an allocation spike causes a full GC
    waste_trigger = 0.40

    def _old_pressure(self, now_ns: int) -> bool:
        if self.heap.occupancy >= self.ihop:
            return True
        old_regions = self.heap.regions_in(Space.OLD)
        used = sum(r.used for r in old_regions)
        if used == 0:
            return False
        garbage = sum(r.garbage_bytes(now_ns) for r in old_regions)
        return garbage / used >= self.waste_trigger

    def _old_phase(self, now_ns: int, tracking: bool) -> Tuple[int, int]:
        if not self._old_pressure(now_ns):
            return 0, 0
        candidates = self._collection_set(now_ns)
        if not candidates:
            return 0, 0
        self.mixed_collections += 1
        return self._evacuate_regions(candidates, now_ns, tracking, dest=Space.OLD)

    def _mixed_budget(self) -> int:
        """Collection-set size cap, expanded under heap pressure.

        Like G1's adaptive policies: when occupancy runs well past the
        IHOP the collector reclaims more aggressively per pause rather
        than drifting into an allocation failure (full GC).
        """
        occupancy = self.heap.occupancy
        if occupancy >= 0.85:
            return self.max_mixed_regions * 4
        if occupancy >= 0.70:
            return self.max_mixed_regions * 2
        return self.max_mixed_regions

    def _collection_set(self, now_ns: int) -> List[Region]:
        """Old regions with the most garbage, capped per cycle."""
        candidates = [
            (r.garbage_bytes(now_ns), r)
            for r in self.heap.regions_in(Space.OLD)
            if r.used > 0 and r.fragmentation(now_ns) >= self.mixed_garbage_threshold
        ]
        candidates.sort(key=lambda pair: pair[0], reverse=True)
        return [r for _, r in candidates[: self._mixed_budget()]]

    def _young_pause_kind(self) -> str:
        return "mixed" if self.heap.occupancy >= self.ihop else "young"

    # -- full collection ----------------------------------------------------------------

    def collect_full(self, reason: str) -> None:
        """Evacuation failure fallback: compact the entire old space."""
        if self.verifier.enabled:
            self.verifier.at_gc_start(self)
        now = self.clock.now_ns
        old_regions = [r for r in self.heap.regions_in(Space.OLD) if r.used > 0]
        tracking = self.profiler.survivor_tracking_enabled()
        bytes_copied, profiled = self._evacuate_regions(
            old_regions, now, tracking, dest=Space.OLD
        )
        pause_ns = self.bandwidth.pause_ns(
            bytes_copied, regions_scanned=len(old_regions), survivors_profiled=profiled
        )
        self._record_pause("full", pause_ns, bytes_copied=bytes_copied)
        self._end_of_cycle(pause_ns)
