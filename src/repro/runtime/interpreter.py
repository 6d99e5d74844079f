"""Method interpreter / execution engine.

Workload bodies are plain Python callables, but every action that the
JVM would interpose on goes through the :class:`ExecutionContext`:

* ``ctx.call(bci, method, *args)`` — method invocation (positional
  arguments only).  Applies the JIT invocation counter, the inlining
  decision and — when the caller is jitted, the site instrumented and
  profiling enabled — the add/sub update of the thread stack state,
  with the fast-branch/slow-path cost model of Figure 6's four levels.
* ``ctx.alloc(bci, size, ...)`` — object allocation.  Resolves the
  allocation context (site id + stack state), charges the allocation
  profiling tax, and hands the object to the collector.
* ``ctx.work(ns)`` — pure mutator compute.
* ``ctx.throw_exception(...)`` — raises a :class:`SimException` whose
  unwind either rebalances the stack state (ROLP's rethrow hook) or
  corrupts it, depending on the VM flag.
* ``ctx.loop(iterations)`` — marks a long-running loop, giving the JIT
  a chance to perform on-stack replacement.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.heap.header import MASK_16
from repro.heap.object_model import IMMORTAL, SimObject
from repro.runtime.exceptions import SimException
from repro.runtime.method import CallSite, Method, alloc_site_of, call_site_of
from repro.runtime.thread import SimThread

#: default simulated cost of executing one method body's base work
DEFAULT_CALL_OVERHEAD_NS = 20.0


class ExecutionContext:
    """The per-thread view of the VM handed to method bodies."""

    __slots__ = ("vm", "thread")

    def __init__(self, vm: "repro.runtime.vm.JavaVM", thread: SimThread) -> None:  # noqa: F821
        self.vm = vm
        self.thread = thread

    # -- time ------------------------------------------------------------------

    @property
    def now_ns(self) -> int:
        return self.vm.clock.now_ns

    def work(self, ns: float) -> None:
        """Pure computation: advances the mutator clock."""
        self.vm.charge_mutator(ns)

    # -- invocation ---------------------------------------------------------------

    def call(self, bci: int, method: Method, *args: Any) -> Any:
        """Invoke ``method`` from the current method's call site ``bci``."""
        vm = self.vm
        thread = self.thread
        caller = thread.current_method

        site: Optional[CallSite] = None
        increment = 0
        if caller is not None:
            site = caller.call_site(bci)
            site.targets.add(method)
            site.invocations += 1
            if caller.compiled and site.increment == 0 and not site.inlined:
                vm.jit.register_late_call_site(site)
            increment = vm.call_profiling_increment(site)

        vm.jit.record_invocation(method, vm.profiler)
        vm.charge_mutator(DEFAULT_CALL_OVERHEAD_NS)

        thread.push_frame(method, site, increment)
        try:
            result = method.body(self, *args)
        except SimException as exc:
            self._unwind_frame(exc)
            exc.unwound += 1
            if exc.should_stop_at(exc.unwound):
                return None  # handled here; execution resumes in caller
            raise
        else:
            thread.pop_frame(repair=True)
            return result

    def _unwind_frame(self, exc: SimException) -> None:
        """Pop the top frame during exception propagation.

        With the VM flag ``fix_exception_unwind`` set (ROLP's hook on the
        JVM rethrow path), the pop rebalances the stack state; without
        it, the contribution is leaked — the corruption the paper's hook
        exists to prevent.
        """
        self.thread.pop_frame(repair=self.vm.flags.fix_exception_unwind)

    def throw_exception(self, message: str = "", handled_depth: int = 1) -> None:
        """Throw a simulated exception handled ``handled_depth`` frames up."""
        self.vm.exceptions_thrown += 1
        raise SimException(message, handled_depth)

    # -- allocation -----------------------------------------------------------------

    def alloc(
        self,
        bci: int,
        size: int,
        lives_ns: Optional[float] = None,
        gen_hint: int = 0,
    ) -> SimObject:
        """Allocate an object at the current method's ``new`` site ``bci``.

        ``lives_ns`` is the oracle lifetime (None = unknown for now; the
        workload will call :meth:`SimObject.kill_at` later).  ``gen_hint``
        is the NG2C hand-annotation (ignored unless the collector runs in
        annotation mode).
        """
        thread = self.thread
        method = thread.current_method
        if method is None:
            raise RuntimeError("allocation outside any method frame")
        site = method.alloc_site(bci)
        site.alloc_count += 1
        if method.compiled and not site.profiled:
            self.vm.jit.register_late_alloc_site(site, self.vm.profiler)

        death = IMMORTAL if lives_ns is None else self.now_ns + lives_ns
        return self.vm.allocate(thread, site, size, death, gen_hint)

    # -- misc runtime events ----------------------------------------------------------

    def bias_lock(self, obj: SimObject) -> None:
        """Bias-lock ``obj`` toward this thread (clobbers its context)."""
        self.vm.biased_locks.lock(self.thread, obj)

    def loop(self, iterations: int, ns_per_iteration: float = 10.0) -> None:
        """A long-running loop; may trigger on-stack replacement."""
        self.vm.charge_mutator(iterations * ns_per_iteration)
        method = self.thread.current_method
        if method is not None and self.vm.jit.maybe_osr(method, self.vm.profiler):
            # The interpreted frame was replaced by a compiled frame whose
            # entry was never profiled; model the transient corruption the
            # safepoint verifier (§7.2.3) exists to repair.
            self.thread.stack_state = (self.thread.stack_state + 0x5A5A) & 0xFFFF


class FastExecutionContext(ExecutionContext):
    """Hot-path twin of :class:`ExecutionContext`.

    Selected by :class:`repro.runtime.vm.JavaVM` when fast paths are
    enabled (see :mod:`repro.fastpath`).  The ``call``/``alloc``/``work``
    bodies inline the site lookup, frame push/pop, invocation counting
    and clock charges of the reference implementation; every observable
    effect (clock advances, RNG draws, counters, stack-state
    transitions, exception semantics) is event-for-event identical — the
    differential perf kernels and the equivalence suite pin this.

    Four rules keep it so (docs/performance.md, *Hot-path rules*): each
    clock charge is truncated on its own, as
    :meth:`SimClock.advance_mutator` truncates it; sites are created only
    by :func:`call_site_of`/:func:`alloc_site_of`, whose order fixes the
    JIT's site ids and increment draws; per-VM constants are bound at
    construction; late site registration is tried only for instrumented
    methods, the only ones the JIT registers.
    """

    __slots__ = ("_clock", "_factor", "_call_ns")

    def __init__(self, vm: "repro.runtime.vm.JavaVM", thread: SimThread) -> None:  # noqa: F821
        super().__init__(vm, thread)
        self._clock = vm.clock
        self._factor = vm.collector.mutator_overhead_factor
        self._call_ns = int(DEFAULT_CALL_OVERHEAD_NS * self._factor)

    def work(self, ns: float) -> None:
        ns *= self._factor
        if ns < 0:
            raise ValueError("time cannot move backwards (got %r ns)" % ns)
        ns = int(ns)
        clock = self._clock
        clock.now_ns += ns
        clock.total_mutator_ns += ns

    def call(self, bci: int, method: Method, *args: Any) -> Any:
        vm = self.vm
        thread = self.thread
        frames = thread.frames

        site: Optional[CallSite] = None
        increment = 0
        if frames:
            caller = frames[-1][0]
            site = caller.call_sites.get(bci)
            if site is None:
                site = call_site_of(caller, bci)
            site.targets.add(method)
            site.invocations += 1
            if site.increment == 0:
                if caller.instrumented and not site.inlined:
                    vm.jit.register_late_call_site(site)
            # Uninstrumented sites return 0 from call_profiling_increment
            # without charging anything; skip the call entirely.
            if site.increment != 0 and not site.inlined:
                increment = vm.call_profiling_increment(site)

        jit = vm.jit
        method.invocations += 1
        if not method.compiled and method.invocations >= jit.compile_threshold:
            jit.compile(method, vm.profiler)
        clock = self._clock
        clock.now_ns += self._call_ns
        clock.total_mutator_ns += self._call_ns

        if increment:
            thread.stack_state = (thread.stack_state + increment) & MASK_16
        frames.append((method, site, increment))
        try:
            result = method.body(self, *args)
        except SimException as exc:
            thread.pop_frame(repair=vm.flags.fix_exception_unwind)
            exc.unwound += 1
            if exc.should_stop_at(exc.unwound):
                return None  # handled here; execution resumes in caller
            raise
        else:
            contributed = frames.pop()[2]
            if contributed:
                thread.stack_state = (thread.stack_state - contributed) & MASK_16
            return result

    def alloc(
        self,
        bci: int,
        size: int,
        lives_ns: Optional[float] = None,
        gen_hint: int = 0,
    ) -> SimObject:
        thread = self.thread
        frames = thread.frames
        if not frames:
            raise RuntimeError("allocation outside any method frame")
        method = frames[-1][0]
        site = method.alloc_sites.get(bci)
        if site is None:
            site = alloc_site_of(method, bci)
        site.alloc_count += 1
        vm = self.vm
        if method.instrumented and site.site_id == 0:
            vm.jit.register_late_alloc_site(site, vm.profiler)

        death = IMMORTAL if lives_ns is None else self._clock.now_ns + lives_ns
        return vm.allocate(thread, site, size, death, gen_hint)
