"""Interpreter edge cases every execution backend must preserve:
exception unwinds that cross allocation sites (with and without the
rethrow hook), 16-bit stack-state wraparound under deeply instrumented
call chains, the OSR corruption pulse, allocation outside any frame,
and ``loop()`` clock accounting.

Every test runs against both execution backends, selected the way
production selects them — via the process-global backend switch at VM
construction.  The reference backend runs bodies through
:class:`ExecutionContext`; ``fast`` runs them through
:class:`FastExecutionContext`.
"""

import pytest

from repro import build_vm
from repro.fastpath import BACKENDS, set_backend
from repro.heap.header import MASK_16
from repro.runtime import Method, VMFlags
from repro.runtime.interpreter import ExecutionContext, FastExecutionContext


@pytest.fixture(params=BACKENDS)
def exec_backend(request):
    previous = set_backend(request.param)
    yield request.param
    set_backend(previous)


def make_vm(flags=None):
    vm, _ = build_vm("g1", heap_mb=16, flags=flags)
    return vm


def make_method(name, body, klass="app.Edge"):
    # bytecode_size above inline_max_size: call sites to these methods
    # stay out of inlining, so each can carry a stack-state increment
    return Method(name, klass, body, bytecode_size=100)


def set_increment(caller, bci, increment):
    """Hand an already-recorded call site a deterministic increment (the
    JIT normally draws one from its RNG at compile time)."""
    caller.call_sites[bci].increment = increment


class TestContextSelection:
    def test_vm_picks_context_class_from_ambient_switch(self, exec_backend):
        vm = make_vm()
        ctx = vm.context(vm.spawn_thread())
        expected = {
            "reference": ExecutionContext,
            "fast": FastExecutionContext,
        }[exec_backend]
        assert type(ctx) is expected


class TestExceptionUnwindThroughAlloc:
    """A method that allocates and then throws: the unwind crosses a
    frame whose call site contributed to the stack state, and — per
    Section 7.2.2 — only ROLP's rethrow hook (``fix_exception_unwind``)
    rebalances it."""

    def run_workload(self, fix):
        vm = make_vm(
            VMFlags(call_profiling_mode="slow", fix_exception_unwind=fix)
        )
        thread = vm.spawn_thread()

        def inner_body(ctx):
            ctx.alloc(1, 128, 1_000)
            ctx.throw_exception("post-alloc failure", 2)

        inner = make_method("inner", inner_body)

        def mid_body(ctx):
            ctx.alloc(2, 64, 1_000)
            ctx.call(5, inner)

        mid = make_method("mid", mid_body)

        def root_body(ctx):
            ctx.call(7, mid)

        root = make_method("root", root_body)

        # first run records the call sites; then instrument them by hand
        # so the second run's unwind carries real contributions
        vm.run(thread, root)
        set_increment(root, 7, 0x0101)
        set_increment(mid, 5, 0x0202)
        vm.run(thread, root)
        return vm, thread, inner

    def test_alloc_site_recorded_despite_unwind(self, exec_backend):
        vm, thread, inner = self.run_workload(fix=True)
        assert inner.alloc_sites[1].alloc_count == 2
        assert vm.allocations == 4  # 2 allocs per run (mid + inner)

    def test_unwind_with_fix_rebalances_stack_state(self, exec_backend):
        _, thread, _ = self.run_workload(fix=True)
        assert thread.frames == []
        assert thread.stack_state == 0

    def test_unwind_without_fix_leaks_contributions(self, exec_backend):
        # the exception is handled in root (2 frames up): both frames it
        # crosses — inner (contributed 0x0202) and mid (0x0101) — unwind
        # unrepaired; root's own pop is a normal return and stays balanced
        _, thread, _ = self.run_workload(fix=False)
        assert thread.frames == []
        assert thread.stack_state == 0x0202 + 0x0101
        assert thread.expected_stack_state() == 0
        assert thread.verify_and_repair() is True  # safepoint repairs it
        assert thread.stack_state == 0


class TestStackStateOverflow:
    """Contributions are 16-bit modular arithmetic: a nested chain whose
    increments sum past 0xFFFF must wrap, agree with
    ``expected_stack_state`` mid-flight, and unwind back to zero."""

    def test_nested_increments_wrap_mod_2_16(self, exec_backend):
        vm = make_vm(VMFlags(call_profiling_mode="slow"))
        thread = vm.spawn_thread()
        observed = {}

        def leaf_body(ctx):
            observed["stack_state"] = ctx.thread.stack_state
            observed["expected"] = ctx.thread.expected_stack_state()

        leaf = make_method("leaf", leaf_body)

        def mid_body(ctx):
            ctx.call(3, leaf)

        mid = make_method("mid", mid_body)

        def root_body(ctx):
            ctx.call(4, mid)

        root = make_method("root", root_body)

        vm.run(thread, root)  # record sites
        set_increment(root, 4, 0x9000)
        set_increment(mid, 3, 0x9000)
        vm.run(thread, root)

        wrapped = (0x9000 + 0x9000) & MASK_16
        assert wrapped == 0x2000  # the sum really exceeds 16 bits
        assert observed["stack_state"] == wrapped
        assert observed["expected"] == wrapped
        assert thread.stack_state == 0
        assert thread.frames == []

    def test_wraparound_survives_exception_unwind(self, exec_backend):
        vm = make_vm(
            VMFlags(call_profiling_mode="slow", fix_exception_unwind=True)
        )
        thread = vm.spawn_thread()

        def leaf_body(ctx):
            ctx.throw_exception("boom", 2)

        leaf = make_method("leaf", leaf_body)

        def mid_body(ctx):
            ctx.call(3, leaf)

        mid = make_method("mid", mid_body)

        def root_body(ctx):
            ctx.call(4, mid)

        root = make_method("root", root_body)

        vm.run(thread, root)
        set_increment(root, 4, 0xFFFF)
        set_increment(mid, 3, 0xFFFF)
        vm.run(thread, root)
        # the repair path subtracts mod 2**16 too: wrapped contributions
        # unwind to exactly zero, not to a 2**16 residue
        assert thread.stack_state == 0


class TestOsrCorruptionPulse:
    """``loop()`` in an OSR-eligible interpreted method compiles it
    mid-execution and applies the 0x5A5A stack-state pulse the
    safepoint verifier exists to repair (§7.2.3)."""

    def run_looper(self):
        vm = make_vm(VMFlags(compile_threshold=1_000_000))
        thread = vm.spawn_thread()

        def body(ctx):
            ctx.loop(100, 10.0)

        looper = Method(
            "looper", "app.Edge", body, bytecode_size=100, osr_eligible=True
        )
        vm.run(thread, looper)
        return vm, thread, looper

    def test_osr_compiles_and_corrupts_stack_state(self, exec_backend):
        vm, thread, looper = self.run_looper()
        assert looper.compiled
        assert vm.jit.osr_events == 1
        # the pulse survives until the next safepoint repairs it
        assert thread.stack_state == 0x5A5A
        assert thread.verify_and_repair() is True
        assert thread.stack_state == 0

    def test_osr_fires_once(self, exec_backend):
        vm, thread, looper = self.run_looper()
        thread.verify_and_repair()
        vm.run(thread, looper)  # already compiled: no second pulse
        assert vm.jit.osr_events == 1
        assert thread.stack_state == 0


class TestAllocationOutsideFrame:
    def test_alloc_without_frame_raises(self, exec_backend):
        vm = make_vm()
        ctx = vm.context(vm.spawn_thread())
        with pytest.raises(RuntimeError, match="outside any method frame"):
            ctx.alloc(1, 64)


class TestLoopClockAccounting:
    def test_loop_charges_iterations_times_cost(self, exec_backend):
        vm = make_vm()
        thread = vm.spawn_thread()
        factor = vm.collector.mutator_overhead_factor
        deltas = {}

        def body(ctx):
            before = vm.clock.now_ns
            ctx.loop(1_000, ns_per_iteration=7.5)
            deltas["loop"] = vm.clock.now_ns - before

        vm.run(thread, Method("looper", "app.Edge", body, bytecode_size=100))
        assert deltas["loop"] == 1_000 * 7.5 * factor

    def test_loop_without_osr_leaves_stack_state_alone(self, exec_backend):
        vm = make_vm()
        thread = vm.spawn_thread()

        def body(ctx):
            ctx.loop(10)

        # osr_eligible defaults to False, so no OSR corruption is modeled
        vm.run(thread, Method("looper", "app.Edge", body, bytecode_size=100))
        assert thread.stack_state == 0
