"""Just-in-time compilation model.

ROLP piggybacks on JIT compilation: profiling code is installed only
into *hot* (compiled) methods, so only a small fraction of allocation
sites and call sites ever pay a profiling cost.  This module models the
parts of HotSpot's JIT that matter for that decision:

* invocation-counting hot-method detection with a compile threshold;
* an inlining policy (small, monomorphic callees are inlined, and the
  paper deliberately does *not* profile inlined calls, Section 7.2.1);
* allocation-site identifier assignment (16-bit space) at compile time;
* call-site increment assignment (random non-zero 16-bit values — the
  weak additive hash construction the paper evaluates);
* on-stack replacement (OSR) of long-running loopy methods, which is a
  source of stack-state corruption repaired at safepoints.
"""

from __future__ import annotations

import random
from typing import List

from repro.heap.header import MASK_16
from repro.runtime.hooks import NullProfiler
from repro.runtime.method import AllocSite, CallSite, Method
from repro.telemetry import NULL_TELEMETRY


class JitCompiler:
    """Invocation-counting compiler with an inlining policy.

    Parameters
    ----------
    compile_threshold:
        Invocations before a method is compiled (HotSpot's default is
        10 000; the simulator default is lower so short benchmark runs
        still reach steady state).
    inline_max_size:
        Callee bytecode-size bound for inlining.
    seed:
        Seed for the deterministic increment-id generator.
    """

    def __init__(
        self,
        compile_threshold: int = 100,
        inline_max_size: int = 35,
        seed: int = 0xC0FFEE,
    ) -> None:
        self.compile_threshold = compile_threshold
        self.inline_max_size = inline_max_size
        self._rng = random.Random(seed)
        self._next_site_id = 1  # 0 is reserved for "unprofiled"
        #: all methods that have been compiled, in compile order
        self.compiled_methods: List[Method] = []
        #: all instrumented (profilable) call sites across the code cache
        self.instrumented_call_sites: List[CallSite] = []
        #: all instrumented allocation sites
        self.instrumented_alloc_sites: List[AllocSite] = []
        #: total invocation events observed (for PMC/PAS percentages)
        self.total_call_sites_seen = 0
        self.total_alloc_sites_seen = 0
        self.osr_events = 0
        self.bind_telemetry(NULL_TELEMETRY)

    def bind_telemetry(self, telemetry) -> None:
        """Attach tracing + metrics (the VM calls this at construction)."""
        self._tracer = telemetry.tracer
        metrics = telemetry.metrics
        self._m_compiles = metrics.counter(
            "jit_compiled_methods_total", "Methods JIT compiled"
        )
        self._m_instrumented = metrics.counter(
            "jit_instrumented_methods_total",
            "Compiled methods that received profiling code",
        )
        self._m_osr = metrics.counter(
            "jit_osr_events_total", "On-stack replacements"
        )

    # -- hot-method detection ----------------------------------------------------

    def record_invocation(self, method: Method, profiler: NullProfiler) -> bool:
        """Count an invocation; compile when the threshold is crossed.

        Returns True when this invocation triggered compilation.
        """
        method.invocations += 1
        if not method.compiled and method.invocations >= self.compile_threshold:
            self.compile(method, profiler)
            return True
        return False

    # -- compilation ------------------------------------------------------------------

    def compile(self, method: Method, profiler: NullProfiler) -> None:
        """Compile ``method``; install profiling code if the profiler's
        package filters accept it."""
        if method.compiled:
            return
        method.compiled = True
        self.compiled_methods.append(method)
        if profiler.should_instrument(method):
            self._instrument(method)
            method.instrumented = True
            profiler.on_method_compiled(method)
        self._m_compiles.inc()
        if method.instrumented:
            self._m_instrumented.inc()
        if self._tracer.enabled:
            self._tracer.instant(
                "jit/compile",
                category="jit",
                method=method.qualified_name,
                instrumented=method.instrumented,
                alloc_sites=len(method.alloc_sites),
                call_sites=len(method.call_sites),
            )

    def _instrument(self, method: Method) -> None:
        """Install allocation-site ids and call-site increments."""
        for site in method.alloc_sites.values():
            self.total_alloc_sites_seen += 1
            site_id = self._allocate_site_id()
            if site_id:
                site.site_id = site_id
                self.instrumented_alloc_sites.append(site)
        for call_site in method.call_sites.values():
            self.total_call_sites_seen += 1
            if self.should_inline(call_site):
                call_site.inlined = True
                continue
            call_site.increment = self._fresh_increment()
            self.instrumented_call_sites.append(call_site)

    def _allocate_site_id(self) -> int:
        """Hand out the next 16-bit allocation-site id (0 when the id
        space is exhausted — further sites simply go unprofiled)."""
        if self._next_site_id > MASK_16:
            return 0
        site_id = self._next_site_id
        self._next_site_id += 1
        return site_id

    def _fresh_increment(self) -> int:
        """A random non-zero 16-bit call-site increment."""
        return self._rng.randint(1, MASK_16)

    # -- inlining policy -------------------------------------------------------------------

    def should_inline(self, call_site: CallSite) -> bool:
        """Small and monomorphic callees are inlined (and, per the paper,
        inlined calls are never profiled)."""
        if call_site.polymorphic:
            return False
        if not call_site.targets:
            return False
        (callee,) = call_site.targets
        return callee.bytecode_size <= self.inline_max_size

    # -- late registration ----------------------------------------------------------------------

    def register_late_alloc_site(self, site: AllocSite, profiler: NullProfiler) -> None:
        """An allocation site first executed *after* its method compiled.

        HotSpot would recompile through an uncommon trap; we model the
        common outcome — the site gets profiling on the recompile.
        """
        if site.site_id == 0 and site.method.instrumented:
            self.total_alloc_sites_seen += 1
            site_id = self._allocate_site_id()
            if site_id:
                site.site_id = site_id
                self.instrumented_alloc_sites.append(site)

    def register_late_call_site(self, site: CallSite) -> None:
        """A call site first executed after its method compiled."""
        if site.increment == 0 and not site.inlined and site.method.instrumented:
            self.total_call_sites_seen += 1
            if self.should_inline(site):
                site.inlined = True
                return
            site.increment = self._fresh_increment()
            self.instrumented_call_sites.append(site)

    # -- OSR -------------------------------------------------------------------------------------

    def maybe_osr(self, method: Method, profiler: NullProfiler) -> bool:
        """On-stack replacement of a long-running method.

        Returns True when the method transitioned interpreted→compiled
        mid-execution (the caller corrupts the thread stack state to
        model the switch; the safepoint verifier repairs it later).
        """
        if method.osr_eligible and not method.compiled:
            self.compile(method, profiler)
            self.osr_events += 1
            self._m_osr.inc()
            if self._tracer.enabled:
                self._tracer.instant(
                    "jit/osr", category="jit", method=method.qualified_name
                )
            return True
        return False

    # -- statistics --------------------------------------------------------------------------------

    @property
    def profiled_alloc_site_count(self) -> int:
        return len(self.instrumented_alloc_sites)

    @property
    def profiled_call_site_count(self) -> int:
        return len(self.instrumented_call_sites)
