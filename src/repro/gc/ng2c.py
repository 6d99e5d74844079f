"""NG2C-like pretenuring collector.

NG2C (Bruno et al., ISMM 2017) extends G1 with *dynamic generations*:
the old space is subdivided into up to 14 extra allocation spaces, and
new objects can be allocated directly into the generation matching their
estimated lifetime, skipping the survivor-copy treadmill entirely.

Two advice sources, matching the paper's evaluation:

* **annotation mode** (plain NG2C): the workload's hand-placed
  ``gen_hint`` values (the programmer-knowledge baseline);
* **profiler mode** (ROLP): the attached profiler's
  :meth:`allocation_advice` per allocation context — no hints needed.

Objects whose lifetimes were estimated correctly die inside their
dynamic generation; the region becomes fully garbage and is reclaimed
wholesale with zero copying.  Mis-tenured regions are evacuated during
the mixed phase like G1 old regions, and the resulting fragmentation
statistics feed ROLP's lifetime-decrement loop (paper Section 6).
"""

from __future__ import annotations

from typing import Tuple

from repro.heap.fragmentation import dead_bytes_by_context, guilty_contexts
from repro.heap.header import NUM_AGES
from repro.heap.region import Space
from repro.gc.g1 import G1Collector

#: generation number meaning "the old generation" in NG2C's scheme
OLD_GEN = NUM_AGES - 1  # 15


class NG2CCollector(G1Collector):
    """G1 + 16 allocation spaces (young, 14 dynamic gens, old)."""

    name = "ng2c"
    #: regions may carry NG2C's dynamic generations 1..14
    supports_dynamic_gens = True

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
        use_profiler_advice: bool = False,
        fragmentation_threshold: float = 0.25,
    ) -> None:
        super().__init__(
            heap,
            bandwidth,
            clock,
            young_regions,
            tenuring_threshold,
            ihop,
            mixed_garbage_threshold,
            max_mixed_regions,
        )
        #: ROLP mode (True) vs hand-annotation mode (False)
        self.use_profiler_advice = use_profiler_advice
        self.fragmentation_threshold = fragmentation_threshold
        self.pretenured_objects = 0
        self.regions_reclaimed_wholesale = 0

    # -- placement ---------------------------------------------------------------

    def _placement(self, obj, context, gen_hint) -> Tuple[Space, int]:
        if not self.use_profiler_advice:
            gen = gen_hint
        elif context:
            gen = self.profiler.allocation_advice(context)
        else:
            gen = 0
        if gen <= 0:
            return Space.EDEN, 0
        self.pretenured_objects += 1
        if gen >= OLD_GEN:
            return Space.OLD, 0
        return Space.DYNAMIC, gen

    # -- collection --------------------------------------------------------------------

    def _old_phase(self, now_ns: int, tracking: bool) -> Tuple[int, int]:
        """Mixed phase: reclaim dead dynamic-gen regions wholesale, then
        evacuate the worst old/dynamic regions like G1."""
        bytes_copied = 0
        profiled = 0

        # Wholesale reclamation: fully dead dynamic regions cost nothing.
        # Record whose bytes were reclaimed for free: the fragmentation
        # report uses this to distinguish systematically mis-tenured
        # contexts (whose garbage must be copied around) from contexts
        # whose objects die together (whose garbage costs nothing).
        wholesale_dead: dict = {}
        for region in self.heap.regions_in(Space.DYNAMIC):
            if region.live_bytes(now_ns) == 0:
                # Covers both fully-dead regions and the empty tail
                # regions left behind when advice moves a context to a
                # different generation.
                for context, dead in dead_bytes_by_context([region], now_ns).items():
                    wholesale_dead[context] = wholesale_dead.get(context, 0) + dead
                self.heap.release_region(region)
                self.regions_reclaimed_wholesale += 1

        if not self._old_pressure(now_ns):
            return 0, 0

        # G1-style old collection set.
        copied, prof = super()._old_phase(now_ns, tracking)
        bytes_copied += copied
        profiled += prof

        # Fragmented dynamic regions: evacuate survivors within their
        # generation and report the guilty contexts to the profiler.
        # Near-empty but fully-live regions (stragglers left behind by
        # advice changes) also qualify: they have zero garbage fraction
        # yet each pins a whole region — consolidating them is cheap.
        frag_regions = [
            r
            for r in self.heap.regions_in(Space.DYNAMIC)
            if r.used > 0
            and (
                r.fragmentation(now_ns) >= self.fragmentation_threshold
                or (
                    r.occupancy() < 0.05
                    # ...but never the region still receiving bump
                    # allocations: evacuating it would just thrash.
                    and r is not self.heap.current_alloc_region(Space.DYNAMIC, r.gen)
                )
            )
        ]
        if frag_regions or wholesale_dead:
            blame = guilty_contexts(
                frag_regions, now_ns, self.fragmentation_threshold
            )
            if blame or wholesale_dead:
                self.profiler.on_fragmentation_report(
                    {
                        context: (
                            blame.get(context, 0),
                            wholesale_dead.get(context, 0),
                        )
                        for context in set(blame) | set(wholesale_dead)
                    }
                )
            budget = self._mixed_budget()
            for region in frag_regions[:budget]:
                copied, prof = self._evacuate_regions(
                    [region],
                    now_ns,
                    tracking,
                    dest=Space.DYNAMIC,
                    dest_gen=region.gen,
                    breakdown_key="dynamic",
                )
                bytes_copied += copied
                profiled += prof
        return bytes_copied, profiled

    def collect_full(self, reason: str) -> None:
        """Fallback compaction covers old + all dynamic generations."""
        if self.verifier.enabled:
            self.verifier.at_gc_start(self)
        now = self.clock.now_ns
        tracking = self.profiler.survivor_tracking_enabled()
        bytes_copied = 0
        regions_scanned = 0
        for region in list(self.heap.regions_in(Space.DYNAMIC)):
            if region.used == 0:
                continue
            regions_scanned += 1
            if region.live_bytes(now) == 0:
                self.heap.release_region(region)
                self.regions_reclaimed_wholesale += 1
                continue
            copied, _ = self._evacuate_regions(
                [region], now, tracking, dest=Space.DYNAMIC, dest_gen=region.gen
            )
            bytes_copied += copied
        old_regions = [r for r in self.heap.regions_in(Space.OLD) if r.used > 0]
        regions_scanned += len(old_regions)
        copied, profiled = self._evacuate_regions(
            old_regions, now, tracking, dest=Space.OLD
        )
        bytes_copied += copied
        pause_ns = self.bandwidth.pause_ns(
            bytes_copied, regions_scanned=regions_scanned, survivors_profiled=profiled
        )
        self._record_pause("full", pause_ns, bytes_copied=bytes_copied)
        self._end_of_cycle(pause_ns)
