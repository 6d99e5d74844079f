"""CMS-like collector (throughput-oriented baseline).

Concurrent Mark Sweep: the young generation is copying/stop-the-world
(like ParNew); the old generation is swept concurrently and is
*non-moving*.  The concurrent cycle contributes two short pauses
(initial mark, remark).  Because the sweep frees dead objects in place,
free space in the old generation fragments over time; when the wasted
(non-reusable) fraction crosses a limit — or an allocation fails — CMS
falls back to a single-threaded stop-the-world full compaction of the
whole old generation.  Those rare, huge pauses are CMS's signature
tail-latency failure mode, visible in the paper's Figures 8 and 9.
"""

from __future__ import annotations

from repro.heap.region import Space
from repro.gc.generational import GenerationalCollector


class CMSCollector(GenerationalCollector):
    """Copying young gen + concurrent, non-moving old gen."""

    name = "cms"
    #: the concurrent sweep frees objects without moving the rest, so a
    #: region's used bytes legitimately exceed its live object bytes
    in_place_old_sweep = True

    def __init__(
        self,
        heap,
        bandwidth=None,
        clock=None,
        young_regions: int = 0,
        tenuring_threshold: int = 6,
        concurrent_trigger: float = 0.65,
        waste_limit: float = 0.30,
    ) -> None:
        super().__init__(heap, bandwidth, clock, young_regions, tenuring_threshold)
        #: occupancy fraction that starts a concurrent old cycle
        self.concurrent_trigger = concurrent_trigger
        #: wasted-fraction of old space that forces a full compaction
        self.waste_limit = waste_limit
        #: dead-in-place bytes in the old generation (not reusable)
        self.wasted_bytes = 0
        #: :meth:`_old_waste_fraction` as of its last input change, read
        #: by the per-allocation trigger.  CMS places mutator objects only
        #: in eden and humongous regions, so ``wasted_bytes`` and the old
        #: space's used bytes change only in a young collection
        #: (promotion), the concurrent sweep and a full compaction; each
        #: recomputes it, and the heap verifier cross-checks it.
        self.waste_fraction = 0.0
        self.concurrent_cycles = 0
        self.full_compactions = 0

    # -- concurrent old cycle --------------------------------------------------

    def _maybe_collect(self) -> None:
        # The eden trigger called directly rather than through super():
        # this runs on every allocation.
        if self._eden_full():
            self.collect_young()
        if self.heap.occupancy >= self.concurrent_trigger:
            self._concurrent_cycle()
        if self.waste_fraction >= self.waste_limit:
            self.collect_full("fragmentation")

    def _end_of_cycle(self, pause_ns: float) -> None:
        # Young collections and full compactions both end here.
        self.waste_fraction = self._old_waste_fraction()
        super()._end_of_cycle(pause_ns)

    def _concurrent_cycle(self) -> None:
        """Concurrent mark + sweep with two short auxiliary pauses."""
        if self.verifier.enabled:
            self.verifier.at_gc_start(self)
        now = self.clock.now_ns
        self.concurrent_cycles += 1

        # Initial mark: roots only.
        initial_ns = self.bandwidth.safepoint_ns + self.bandwidth.root_scan_ns
        self._record_pause("cms-initial-mark", initial_ns, count_cycle=False)

        old_regions = [r for r in self.heap.regions_in(Space.OLD) if r.used > 0]
        live_objects = sum(
            1 for r in old_regions for o in r.objects if o.is_live(now)
        )

        # Remark: proportional to the live object population (card/dirty
        # rescanning), but far cheaper than copying.
        remark_ns = (
            self.bandwidth.safepoint_ns
            + self.bandwidth.root_scan_ns
            + live_objects * 12.0
        )
        self._record_pause("cms-remark", remark_ns, count_cycle=False)

        # Concurrent sweep: free dead objects in place.  Fully dead
        # regions return to the free list; partially dead regions keep
        # their footprint and the dead bytes become waste.
        for region in old_regions:
            garbage = region.garbage_bytes(now)
            if garbage == 0:
                continue
            if garbage == region.used:
                self.heap.release_region(region)
            else:
                survivors = [o for o in region.objects if o.is_live(now)]
                freed = region.used - sum(o.size for o in survivors)
                region.objects = survivors
                # Non-moving: 'used' stays (the space is fragmented); we
                # track it as waste that only a full compaction recovers.
                self.wasted_bytes += freed
        self.waste_fraction = self._old_waste_fraction()
        # The sweep ends no cycle (auxiliary pauses only), so run the
        # after-GC walk explicitly — it is the only point that sees the
        # freshly swept in-place waste.
        if self.verifier.enabled:
            self.verifier.at_gc_end(self)

    def _old_waste_fraction(self) -> float:
        old_bytes = sum(r.used for r in self.heap.regions_in(Space.OLD))
        if old_bytes == 0:
            return 0.0
        return min(1.0, self.wasted_bytes / old_bytes)

    # -- full compaction ----------------------------------------------------------

    def collect_full(self, reason: str) -> None:
        """Stop-the-world compaction of the entire old generation.

        Single-threaded in classic CMS — the copy cost does not get the
        parallel speedup, which is what makes these pauses so long.
        """
        if self.verifier.enabled:
            self.verifier.at_gc_start(self)
        now = self.clock.now_ns
        old_regions = [r for r in self.heap.regions_in(Space.OLD) if r.used > 0]
        if not old_regions:
            return
        self.full_compactions += 1
        tracking = self.profiler.survivor_tracking_enabled()
        bytes_copied, profiled = self._evacuate_regions(
            old_regions, now, tracking, dest=Space.OLD
        )
        # Serial copy: undo the parallel speedup the model applies.
        serial_penalty = self.bandwidth.parallel_speedup()
        pause_ns = (
            self.bandwidth.pause_ns(
                bytes_copied,
                regions_scanned=len(old_regions),
                survivors_profiled=profiled,
            )
            + self.bandwidth.copy_ns(bytes_copied) * (serial_penalty - 1.0)
        )
        self.wasted_bytes = 0
        self._record_pause("cms-full", pause_ns, bytes_copied=bytes_copied)
        self._end_of_cycle(pause_ns)
