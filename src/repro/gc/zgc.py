"""ZGC-like fully concurrent collector.

The paper's Section 2.2 positions ZGC (and C4/Shenandoah) at the other
end of the Throughput-Memory-Latency trade-off: all marking, relocation
and compaction run concurrently with the mutator, so pauses are tiny
(sub-10 ms — the paper omits ZGC from the pause figures for this
reason), but the heavy use of read/write barriers taxes application
throughput, and concurrent relocation needs heap headroom plus floating
garbage, raising memory usage.

The model: allocation goes to single-space "zpages" (eden regions); a
concurrent cycle starts at an occupancy trigger (paced by allocation
volume so cycles do not run back to back) and contributes three short
fixed pauses (mark start, relocate start, mark end).  Fully dead pages
are freed at the cycle; partially dead pages are relocated *one cycle
later* (floating garbage → memory overhead), and relocation copy work
happens concurrently — it costs no pause time but is the reason for the
barrier tax, modelled as a constant multiplier on all mutator work.
"""

from __future__ import annotations

from typing import List

from repro.heap.region import Region, Space
from repro.gc.collector import Collector


class ZGCCollector(Collector):
    """Concurrent collector: tiny pauses, throughput + memory overhead."""

    name = "zgc"
    #: read/write barrier tax on every unit of mutator work
    mutator_overhead_factor = 1.22
    #: relocation headroom ZGC must keep committed on top of the peak
    #: live+float footprint (colored-pointer multi-mapping + to-space
    #: reserve); counted into the reported max memory usage
    headroom_fraction = 0.45

    def __init__(
        self,
        heap,
        bandwidth=None,
        clock=None,
        occupancy_trigger: float = 0.55,
        pause_ns: float = 900_000.0,
        min_cycle_alloc_fraction: float = 0.08,
    ) -> None:
        super().__init__(heap, bandwidth, clock)
        self.occupancy_trigger = occupancy_trigger
        #: each of the three per-cycle pauses (~0.9 ms)
        self.cycle_pause_ns = pause_ns
        #: fraction of the heap that must be allocated between cycle
        #: starts (pacing: real ZGC doesn't run back-to-back cycles)
        self.min_cycle_alloc_bytes = int(
            heap.capacity_bytes * min_cycle_alloc_fraction
        )
        self.concurrent_cycles = 0
        #: partially-garbage regions found last cycle, relocated next
        #: cycle (floating garbage → memory overhead)
        self._relocation_set: List[Region] = []
        self.concurrent_bytes_copied = 0
        self._bytes_at_last_cycle = 0

    # -- allocation placement ------------------------------------------------------

    def _placement(self, obj, context, gen_hint):
        return Space.EDEN, 0

    def _maybe_collect(self) -> None:
        if self.heap.occupancy < self.occupancy_trigger:
            return
        if (
            self.bytes_allocated - self._bytes_at_last_cycle
            < self.min_cycle_alloc_bytes
        ):
            return
        self._concurrent_cycle()

    # -- concurrent cycle --------------------------------------------------------------

    def _concurrent_cycle(self) -> None:
        if self.verifier.enabled:
            self.verifier.at_gc_start(self)
        now = self.clock.now_ns
        self.concurrent_cycles += 1
        self._bytes_at_last_cycle = self.bytes_allocated

        # Three short stop-the-world pauses per cycle.
        self._record_pause("zgc-mark-start", self.cycle_pause_ns, count_cycle=False)
        self._record_pause("zgc-relocate-start", self.cycle_pause_ns, count_cycle=False)

        # Relocate the previous cycle's relocation set (concurrently —
        # no pause cost; requires free headroom like the real thing).
        self._relocate(self._relocation_set, now)
        self._relocation_set = []

        # Classify this cycle's pages: fully dead pages are freed right
        # away; partially dead pages wait one cycle (floating garbage).
        for region in list(self.heap.regions_in(Space.EDEN)):
            if region.used == 0:
                continue
            live = region.live_bytes(now)
            if live == 0:
                self.heap.release_region(region)
            elif live < region.used:
                self._relocation_set.append(region)

        self._record_pause("zgc-mark-end", self.cycle_pause_ns, count_cycle=False)
        self.gc_cycles += 1
        self._end_of_cycle(self.cycle_pause_ns)

    def _relocate(self, regions: List[Region], now_ns: int) -> None:
        """Concurrently evacuate live objects out of mostly-dead pages.

        Skips pages when no headroom is left — real ZGC would stall
        allocation instead; the page simply stays for a later cycle.
        """
        if not regions:
            return
        for region in regions:
            if region.space is Space.FREE:
                continue
            if self.heap.free_regions < 2:
                continue
            live = [o for o in region.objects if o.is_live(now_ns)]
            self.heap.release_region(region)
            for obj in live:
                obj.copies += 1
                self.concurrent_bytes_copied += obj.size
                self.heap.allocate(obj, Space.EDEN)

    def collect_full(self, reason: str) -> None:
        """Allocation stall: run back-to-back cycles to drain the float
        (the mutator waits; the pauses stay small)."""
        self._bytes_at_last_cycle = -self.min_cycle_alloc_bytes
        self._concurrent_cycle()
        self._bytes_at_last_cycle = -self.min_cycle_alloc_bytes
        self._concurrent_cycle()

    def max_memory_bytes(self) -> int:
        """Peak footprint including the relocation headroom reserve."""
        peak = self.heap.max_committed_bytes
        with_headroom = int(peak * (1.0 + self.headroom_fraction))
        return min(with_headroom, self.heap.capacity_bytes + peak // 4)
