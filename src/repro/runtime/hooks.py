"""Profiler hook interface between the runtime/collector and ROLP.

The simulated VM and the collectors are profiler-agnostic: they emit
events through this interface.  :class:`NullProfiler` is the no-op
implementation used for the baseline collectors (G1, CMS, ZGC, and NG2C
with hand annotations); :class:`repro.core.profiler.RolpProfiler`
implements the real thing.

Keeping the interface here (in the runtime package) avoids a circular
dependency: the core profiler imports the runtime, never the reverse.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.heap.object_model import SimObject
    from repro.runtime.method import AllocSite, CallSite, Method
    from repro.runtime.thread import SimThread


class NullProfiler:
    """Does nothing; costs nothing.  Baseline VM behaviour."""

    #: extra mutator nanoseconds charged per profiled allocation
    alloc_profile_ns: float = 0.0
    #: extra mutator nanoseconds for a call-site fast-branch check
    call_fast_ns: float = 0.0
    #: extra mutator nanoseconds for a call-site slow add/sub update
    call_slow_ns: float = 0.0

    # -- telemetry -------------------------------------------------------------

    def bind_telemetry(self, telemetry) -> None:
        """Attach a :class:`repro.telemetry.Telemetry` bundle.

        The null profiler observes nothing, so there is nothing to
        wire; :class:`repro.core.profiler.RolpProfiler` overrides this.
        """

    # -- JIT-time hooks --------------------------------------------------------

    def should_instrument(self, method: "Method") -> bool:
        """Decide (package filters) whether a jitted method gets profiling
        code at all."""
        return False

    def on_method_compiled(self, method: "Method") -> None:
        """A method was JIT compiled (profiling code now installed)."""

    # -- mutator hooks ----------------------------------------------------------

    def allocation_context(self, thread: "SimThread", site: "AllocSite") -> int:
        """Context to install in a new object's header; 0 = unprofiled."""
        return 0

    def sample_allocation(self, site: "AllocSite") -> bool:
        """Whether this allocation contributes lifetime statistics.

        Sampling (Jump et al., the extension the paper names in
        Section 8.5) reduces the profiling tax: unsampled objects still
        receive pretenuring advice via their context, but carry no
        context in their header and produce no table updates.
        """
        return True

    def on_allocation(self, context: int, obj: "SimObject") -> None:
        """Object allocated with a (possibly zero) context."""

    def call_site_enabled(self, site: "CallSite") -> bool:
        """Whether this call site currently updates the thread stack state
        (the slow path of the conditional profiling branch)."""
        return False

    # -- GC hooks ------------------------------------------------------------------

    def survivor_tracking_enabled(self) -> bool:
        """Whether survivor-processing profiling code is currently on."""
        return False

    def on_gc_survivor(self, worker_id: int, obj: "SimObject") -> None:
        """A live object survived the current collection (about to age)."""

    def on_gc_survivors(self, objs, gc_threads: int) -> None:
        """Batched form of :meth:`on_gc_survivor` for a whole survivor set.

        The generic implementation delegates to the per-object hook with
        the collectors' round-robin worker assignment, so subclasses that
        override only :meth:`on_gc_survivor` stay correct; the ROLP
        profiler overrides this wholesale on its fast path.
        """
        for index, obj in enumerate(objs):
            self.on_gc_survivor(index % gc_threads, obj)

    def on_gc_end(self, gc_number: int, now_ns: int, pause_ns: float) -> None:
        """A stop-the-world cycle finished (worker tables merge here)."""

    def on_fragmentation_report(self, blame: dict) -> None:
        """Collector reports ``context -> (evacuated dead bytes,
        wholesale-reclaimed dead bytes)`` for the dynamic generations."""

    # -- pretenuring advice -----------------------------------------------------------

    def allocation_advice(self, context: int) -> int:
        """Estimated generation (0..15) for allocations with ``context``.

        0 = young (normal allocation), 1..14 = dynamic generations,
        15 = old.  The null profiler never pretenures.
        """
        return 0
