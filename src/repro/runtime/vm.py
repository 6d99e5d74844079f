"""The simulated JVM facade.

Wires together the clock, heap, collector, JIT, threads and (optionally)
the ROLP profiler, and exposes the launch-time flags the paper's
artifact exposes (ROLP is "a simple JVM command line flag").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.analysis import VERIFY_LEVELS, default_verify_level, make_verifier
from repro.fastpath import fast_paths_enabled
from repro.heap.header import install_context
from repro.heap.object_model import SimObject
from repro.runtime.biased_lock import BiasedLockManager
from repro.runtime.clock import SimClock
from repro.runtime.exceptions import SimException
from repro.runtime.hooks import NullProfiler
from repro.runtime.interpreter import ExecutionContext, FastExecutionContext
from repro.runtime.jit import JitCompiler
from repro.runtime.method import AllocSite, CallSite, Method
from repro.runtime.thread import SimThread
from repro.telemetry import NULL_TELEMETRY, Telemetry

#: Figure 6 profiling levels for call-site instrumentation.
CALL_PROFILING_MODES = ("none", "fast", "real", "slow")


@dataclass
class VMFlags:
    """Launch-time flags (the subset the paper's evaluation varies)."""

    #: JIT compile threshold (invocations)
    compile_threshold: int = 100
    #: inlining size bound
    inline_max_size: int = 35
    #: Figure 6 mode: "none" (no call profiling code), "fast" (branch
    #: only), "real" (branch + enabled sites update), "slow" (all sites
    #: update)
    call_profiling_mode: str = "real"
    #: ROLP's hook on the JVM rethrow path (Section 7.2.2)
    fix_exception_unwind: bool = True
    #: base mutator cost per allocation (object init, TLAB bump)
    alloc_base_ns: float = 30.0
    #: invariant verification: 0 off, 1 heap walks at GC boundaries,
    #: 2 adds the biased-lock discipline checker.  ``None`` means "use
    #: the process-wide default" (set by ``rolp-bench --verify``).
    verify_level: Optional[int] = None

    def __post_init__(self) -> None:
        if self.alloc_base_ns < 0:
            raise ValueError("alloc_base_ns cannot be negative")
        if self.call_profiling_mode not in CALL_PROFILING_MODES:
            raise ValueError(
                "call_profiling_mode must be one of %s" % (CALL_PROFILING_MODES,)
            )
        if self.verify_level is None:
            self.verify_level = default_verify_level()
        if self.verify_level not in VERIFY_LEVELS:
            raise ValueError(
                "verify_level must be one of %s" % (VERIFY_LEVELS,)
            )


class JavaVM:
    """A simulated JVM instance.

    Parameters
    ----------
    collector:
        Any :class:`repro.gc.collector.Collector`; the VM attaches
        itself so the collector can run safepoint duties.
    profiler:
        A :class:`~repro.runtime.hooks.NullProfiler` (baseline) or a
        :class:`repro.core.profiler.RolpProfiler`.
    telemetry:
        A :class:`repro.telemetry.Telemetry` bundle; the default null
        bundle records nothing and costs nothing.
    """

    def __init__(
        self,
        collector: "repro.gc.collector.Collector",  # noqa: F821
        profiler: Optional[NullProfiler] = None,
        flags: Optional[VMFlags] = None,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        self.flags = flags or VMFlags()
        self.collector = collector
        self.clock: SimClock = collector.clock
        self.profiler = profiler or NullProfiler()
        self.telemetry = telemetry or NULL_TELEMETRY
        self.telemetry.tracer.bind_clock(self.clock)
        self._telemetry_on = self.telemetry.enabled
        # The hot alloc stream only exists when a bounded consumer (the
        # flight recorder) asked for it; otherwise the hot paths carry a
        # None and skip event construction entirely.
        tracer = self.telemetry.tracer
        self._rec_alloc = tracer.hot_instant if tracer.wants_hot_events else None
        metrics = self.telemetry.metrics
        self._m_allocations = metrics.counter(
            "vm_allocations_total", "Objects allocated, by allocation site"
        )
        self._m_alloc_bytes = metrics.counter(
            "vm_allocated_bytes_total", "Bytes allocated"
        )
        self._m_profiling_tax = metrics.counter(
            "vm_profiling_tax_ns_total", "Mutator nanoseconds spent in profiling code"
        )
        self.jit = JitCompiler(
            compile_threshold=self.flags.compile_threshold,
            inline_max_size=self.flags.inline_max_size,
        )
        self.jit.bind_telemetry(self.telemetry)
        self.verifier = make_verifier(self.flags.verify_level)
        self.verifier.bind(self)
        self.biased_locks = BiasedLockManager()
        self.biased_locks.bind_telemetry(self.telemetry)
        self.biased_locks.bind_verifier(self.verifier)
        self.profiler.bind_telemetry(self.telemetry)
        self.threads: List[SimThread] = []
        self._next_thread_id = 1
        self.exceptions_thrown = 0
        self.allocations = 0
        self.bytes_allocated = 0
        #: mutator nanoseconds spent purely on profiling code
        self.profiling_tax_ns = 0.0
        #: whether the optimised (fast) backend was selected; it runs
        #: method bodies through the inlined context twin
        self.fast_paths = fast_paths_enabled()
        self._ctx_class = FastExecutionContext if self.fast_paths else ExecutionContext
        #: one execution context per thread, built on first use
        self._contexts: Dict[SimThread, ExecutionContext] = {}
        #: the collector's barrier tax on mutator work, and the per-
        #: allocation base charge scaled by it and truncated once, as
        #: each advance_mutator charge truncates
        self._mutator_factor = collector.mutator_overhead_factor
        self._alloc_charge_ns = int(self.flags.alloc_base_ns * self._mutator_factor)
        collector.attach_vm(self)

    # -- threads ------------------------------------------------------------------

    def spawn_thread(self, name: str = "") -> SimThread:
        thread = SimThread(self._next_thread_id, name)
        self._next_thread_id += 1
        self.threads.append(thread)
        return thread

    def context(self, thread: SimThread) -> ExecutionContext:
        """The execution context of ``thread``, built on first use.

        A context holds only the thread and per-VM constants (the clock,
        the barrier factor and the call charge), so one serves every
        operation the thread runs.
        """
        ctx = self._contexts.get(thread)
        if ctx is None:
            ctx = self._contexts[thread] = self._ctx_class(self, thread)
        return ctx

    def run(self, thread: SimThread, method: Method, *args):
        """Run a root invocation (an 'operation') on ``thread``.

        An exception that no frame handles terminates the operation
        (the thread's uncaught-exception boundary) and yields None.
        """
        ctx = self._contexts.get(thread) or self.context(thread)
        try:
            return ctx.call(0, method, *args)
        except SimException:
            return None

    # -- time / cost accounting -----------------------------------------------------

    def charge_mutator(self, ns: float) -> None:
        self.clock.advance_mutator(ns * self._mutator_factor)

    def charge_profiling(self, ns: float) -> None:
        """Mutator cost attributable to profiling instructions."""
        if ns:
            self.profiling_tax_ns += ns
            if self._telemetry_on:
                self._m_profiling_tax.inc(ns)
            self.clock.advance_mutator(ns * self._mutator_factor)

    # -- call-site profiling (Figure 6's four levels) -----------------------------------

    def call_profiling_increment(self, site: CallSite) -> int:
        """Decide the stack-state increment for one dynamic call, and
        charge the corresponding profiling cost.

        Returns 0 when the stack state must not be updated for this call
        (profiling off / fast branch taken).
        """
        if site.increment == 0 or site.inlined:  # == not site.instrumented
            return 0
        mode = self.flags.call_profiling_mode
        profiler = self.profiler
        if mode == "none":
            return 0
        if mode == "fast":
            self.charge_profiling(2 * profiler.call_fast_ns)
            return 0
        if mode == "slow":
            self.charge_profiling(2 * profiler.call_slow_ns)
            return site.increment
        # mode == "real": the conditional branch; enabled sites take the
        # slow add/sub path, others only pay the test+je.
        if profiler.call_site_enabled(site):
            self.charge_profiling(2 * profiler.call_slow_ns)
            return site.increment
        self.charge_profiling(2 * profiler.call_fast_ns)
        return 0

    # -- allocation --------------------------------------------------------------------

    def allocate(
        self,
        thread: SimThread,
        site: AllocSite,
        size: int,
        death_time_ns: float,
        gen_hint: int = 0,
    ) -> SimObject:
        """Allocate through the collector, resolving the ROLP context."""
        clock = self.clock
        clock.now_ns += self._alloc_charge_ns
        clock.total_mutator_ns += self._alloc_charge_ns
        context = 0
        sampled = True
        if site.site_id:  # == site.profiled
            context = self.profiler.allocation_context(thread, site)
            if context:
                sampled = self.profiler.sample_allocation(site)
                # Unsampled allocations still use the context for
                # pretenuring advice, but skip the header install and
                # table increment (and most of the profiling cost).
                self.charge_profiling(
                    self.profiler.alloc_profile_ns
                    if sampled
                    else self.profiler.alloc_profile_ns * 0.15
                )
        obj = self.collector.allocate(size, context, death_time_ns, gen_hint)
        if context:
            if sampled:
                self.profiler.on_allocation(context, obj)
            else:
                if self.verifier.enabled:
                    self.verifier.on_context_install(thread, obj, 0)
                obj.header = install_context(obj.header, 0)
        self.allocations += 1
        self.bytes_allocated += size
        if self._telemetry_on:
            self._m_allocations.inc(
                1, site="%s@%d" % (site.method.qualified_name, site.bci)
            )
            self._m_alloc_bytes.inc(size)
        if self._rec_alloc is not None:
            self._rec_alloc(
                "vm/alloc",
                category="alloc",
                tid=thread.thread_id,
                site=site.site_id,
                size=size,
                context=context,
            )
        return obj

    # -- safepoints -----------------------------------------------------------------------

    def at_safepoint(self) -> None:
        """End-of-GC safepoint duties: verify/repair every thread's stack
        state against its real frame stack (Section 7.2.3)."""
        if self._telemetry_on and self.telemetry.tracer.enabled:
            self.telemetry.tracer.instant(
                "vm/safepoint",
                category="safepoint",
                gc_number=self.collector.gc_cycles,
                threads=len(self.threads),
            )
        for thread in self.threads:
            thread.verify_and_repair()
        if self.verifier.enabled:
            self.verifier.at_safepoint(self)

    # -- statistics -------------------------------------------------------------------------

    def summary(self) -> Dict[str, float]:
        return {
            "allocations": self.allocations,
            "bytes_allocated": self.bytes_allocated,
            "compiled_methods": len(self.jit.compiled_methods),
            "profiled_alloc_sites": self.jit.profiled_alloc_site_count,
            "profiled_call_sites": self.jit.profiled_call_site_count,
            "gc_cycles": self.collector.gc_cycles,
            "total_pause_ms": self.clock.total_pause_ns / 1e6,
            "profiling_tax_ms": self.profiling_tax_ns / 1e6,
            "now_ms": self.clock.now_ms,
        }
