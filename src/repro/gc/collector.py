"""Collector base classes and pause accounting.

Every collector owns the heap, the clock and the bandwidth cost model,
and records each stop-the-world pause as a :class:`PauseEvent`.  The
metrics package turns those records into the percentile curves and
histograms of Figures 8 and 9.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional

from repro.analysis import NULL_VERIFIER
from repro.fastpath import fast_paths_enabled
from repro.heap.bandwidth import BandwidthModel
from repro.heap.header import AGE_MASK, AGE_SHIFT, CONTEXT_SHIFT, MASK_32
from repro.heap.heap import RegionHeap, SimOutOfMemoryError
from repro.heap.object_model import IMMORTAL, SimObject
from repro.heap.region import Space
from repro.runtime.clock import SimClock
from repro.runtime.hooks import NullProfiler
from repro.telemetry import NULL_TELEMETRY, PAUSE_HISTOGRAM_BUCKETS_MS

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.vm import JavaVM


@dataclass(frozen=True)
class PauseEvent:
    """One stop-the-world pause."""

    gc_number: int
    start_ns: int
    duration_ns: float
    kind: str
    bytes_copied: int = 0
    survivors: int = 0

    @property
    def duration_ms(self) -> float:
        return self.duration_ns / 1e6


class Collector:
    """Base collector: allocation front-end + pause bookkeeping.

    Subclasses implement :meth:`_placement` (where a new object goes)
    and :meth:`_maybe_collect` (triggering policy), plus their actual
    collection algorithms.
    """

    name = "base"
    #: multiplier on mutator work (read/write-barrier tax; >1 for ZGC)
    mutator_overhead_factor = 1.0
    #: capability flags the heap verifier keys its rules on
    #: (see repro.analysis.heap_verifier)
    ages_on_copy = False
    in_place_old_sweep = False
    supports_dynamic_gens = False

    def __init__(
        self,
        heap: RegionHeap,
        bandwidth: Optional[BandwidthModel] = None,
        clock: Optional[SimClock] = None,
    ) -> None:
        self.heap = heap
        self.bandwidth = bandwidth or BandwidthModel()
        self.clock = clock or SimClock()
        self.pauses: List[PauseEvent] = []
        self.gc_cycles = 0
        self.vm: Optional["JavaVM"] = None
        self.bytes_copied_total = 0
        self.objects_promoted = 0
        #: total bytes allocated through this collector
        self.bytes_allocated = 0
        self.verifier = NULL_VERIFIER
        #: construction-time snapshot of the process fast-path switch
        self._fast_paths = fast_paths_enabled()
        #: (context, age) -> bytes copied since the last recorded pause;
        #: filled only while tracing, read by the pause-attribution report
        self._pause_contribs: dict = {}
        self.bind_telemetry(NULL_TELEMETRY)

    # -- wiring ---------------------------------------------------------------

    def attach_vm(self, vm: "JavaVM") -> None:
        self.vm = vm
        self.verifier = vm.verifier
        self.bind_telemetry(vm.telemetry)

    def bind_telemetry(self, telemetry) -> None:
        """Attach tracing + metrics (re-wired when a VM attaches)."""
        self.telemetry = telemetry
        metrics = telemetry.metrics
        # Buckets mirror Figure 9's duration intervals.
        self._m_pause_ms = metrics.histogram(
            "gc_pause_ms",
            PAUSE_HISTOGRAM_BUCKETS_MS,
            "Stop-the-world pause durations (ms)",
        )
        self._m_pauses = metrics.counter(
            "gc_pauses_total", "Stop-the-world pauses, by collector and kind"
        )
        self._m_bytes_copied = metrics.counter(
            "gc_bytes_copied_total", "Bytes copied during collection"
        )
        self._m_cycles = metrics.counter(
            "gc_cycles_total", "Full GC cycles (the profiler's unit of time)"
        )

    @property
    def profiler(self) -> NullProfiler:
        return self.vm.profiler if self.vm is not None else _NULL_PROFILER

    # -- allocation -------------------------------------------------------------

    def allocate(
        self,
        size: int,
        context: int = 0,
        death_time_ns: float = IMMORTAL,
        gen_hint: int = 0,
    ) -> SimObject:
        """Allocate a new object, collecting first if policy demands."""
        self._maybe_collect()
        self.bytes_allocated += size
        obj = SimObject(size, self.clock.now_ns, death_time_ns, context)
        space, gen = self._placement(obj, context, gen_hint)
        try:
            self.heap.allocate(obj, space, gen)
        except SimOutOfMemoryError:
            self.collect_full("allocation-failure")
            self.heap.allocate(obj, space, gen)  # raises again if truly full
        return obj

    # -- policy hooks ------------------------------------------------------------

    def _placement(self, obj: SimObject, context: int, gen_hint: int):
        """Return ``(space, gen)`` for a new object."""
        return Space.EDEN, 0

    def _maybe_collect(self) -> None:
        """Trigger collections per the collector's policy."""

    def collect_full(self, reason: str) -> None:
        """Last-resort full collection (default: no-op base)."""

    # -- pause bookkeeping ------------------------------------------------------------

    #: contributions attached per pause span event are capped; the rest
    #: is folded into a remainder bucket so attribution still sums to
    #: the pause's copied bytes
    PAUSE_CONTRIB_TOP_K = 48

    def _attribute_copies(self, objs) -> None:
        """Aggregate (allocation context, age class) -> bytes for the
        objects about to be copied in this pause.

        Must run *before* the copy loop mutates headers, so the fast and
        reference paths (which age in different places) attribute the
        same pre-aging state.  Guarded on the tracer so baseline runs
        never touch it.
        """
        if not self.telemetry.tracer.enabled:
            return
        contribs = self._pause_contribs
        for obj in objs:
            header = obj.header
            key = (
                (header >> CONTEXT_SHIFT) & MASK_32,
                (header & AGE_MASK) >> AGE_SHIFT,
            )
            contribs[key] = contribs.get(key, 0) + obj.size

    def _take_contributions(self):
        """Drain the per-pause aggregate into span-event args: the top-K
        (context, age, bytes) rows by bytes plus a fold-in remainder."""
        contribs = self._pause_contribs
        if not contribs:
            return []
        ranked = sorted(contribs.items(), key=lambda kv: (-kv[1], kv[0]))
        self._pause_contribs = {}
        rows = [[context, age, size] for (context, age), size in ranked[: self.PAUSE_CONTRIB_TOP_K]]
        remainder = sum(size for _, size in ranked[self.PAUSE_CONTRIB_TOP_K :])
        if remainder:
            rows.append([-1, -1, remainder])
        return rows

    def _record_pause(
        self,
        kind: str,
        duration_ns: float,
        bytes_copied: int = 0,
        survivors: int = 0,
        count_cycle: bool = True,
    ) -> PauseEvent:
        """Advance the clock by a pause and record it.

        ``count_cycle`` distinguishes full GC *cycles* (the profiler's
        unit of time) from auxiliary pauses (e.g. CMS initial-mark).
        """
        start = self.clock.now_ns
        self.clock.advance_pause(duration_ns)
        if count_cycle:
            self.gc_cycles += 1
        event = PauseEvent(
            gc_number=self.gc_cycles,
            start_ns=start,
            duration_ns=duration_ns,
            kind=kind,
            bytes_copied=bytes_copied,
            survivors=survivors,
        )
        self.pauses.append(event)
        self.bytes_copied_total += bytes_copied
        if self.telemetry.enabled:
            self.telemetry.tracer.span(
                "gc/%s" % kind,
                start,
                duration_ns,
                category="gc",
                collector=self.name,
                gc_number=event.gc_number,
                bytes_copied=bytes_copied,
                survivors=survivors,
                span_id="gc-%d/%s" % (event.gc_number, kind),
                contributions=self._take_contributions(),
            )
            self._m_pauses.inc(1, collector=self.name, kind=kind)
            self._m_pause_ms.observe(event.duration_ms, collector=self.name)
            self._m_bytes_copied.inc(bytes_copied, collector=self.name)
            if count_cycle:
                self._m_cycles.inc(1, collector=self.name)
        return event

    def _end_of_cycle(self, pause_ns: float) -> None:
        """Common end-of-GC duties: profiler merge + safepoint checks."""
        self.profiler.on_gc_end(self.gc_cycles, self.clock.now_ns, pause_ns)
        if self.vm is not None:
            self.vm.at_safepoint()
        if self.verifier.enabled:
            self.verifier.at_gc_end(self)

    # -- statistics --------------------------------------------------------------------

    def max_memory_bytes(self) -> int:
        return self.heap.max_committed_bytes


class _NullProfilerSingleton(NullProfiler):
    pass


_NULL_PROFILER = _NullProfilerSingleton()
