"""Interpreter edge cases every execution backend must preserve:
exception unwinds that cross allocation sites (with and without the
rethrow hook), 16-bit stack-state wraparound under deeply instrumented
call chains, the OSR corruption pulse, allocation outside any frame,
``loop()`` and ``work()`` clock accounting, and agreement of the two
backends' clocks under a non-integer mutator factor (ZGC).

Every test runs against both execution backends, selected the way
production selects them — via the process-global backend switch at VM
construction.  The reference backend runs bodies through
:class:`ExecutionContext`; ``fast`` runs them through
:class:`FastExecutionContext`.
"""

import pytest

from repro import build_vm
from repro.core import RolpConfig, RolpProfiler
from repro.fastpath import BACKENDS, set_backend
from repro.gc import ZGCCollector
from repro.heap import BandwidthModel, RegionHeap
from repro.heap.header import MASK_16
from repro.runtime import JavaVM, Method, VMFlags
from repro.runtime.interpreter import ExecutionContext, FastExecutionContext
from repro.workloads.dacapo import DaCapoWorkload, get_spec


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


class TestContextReuse:
    """``JavaVM.run`` hands every operation of a thread the same
    context: a context holds only the thread and per-VM constants."""

    def test_one_context_per_thread(self, exec_backend):
        vm = make_vm()
        thread = vm.spawn_thread()
        assert vm.context(thread) is vm.context(thread)
        assert vm.context(vm.spawn_thread()) is not vm.context(thread)

    def test_operation_after_an_uncaught_exception_starts_clean(self, exec_backend):
        vm = make_vm(VMFlags(call_profiling_mode="slow"))
        thread = vm.spawn_thread()
        entries = []

        def leaf_body(ctx):
            ctx.alloc(1, 64, 1_000)
            ctx.throw_exception("uncaught", 99)  # no frame handles it

        leaf = make_method("leaf", leaf_body)

        def root_body(ctx):
            entries.append((ctx, list(thread.frames), thread.stack_state))
            ctx.call(2, leaf)

        root = make_method("root", root_body)

        assert vm.run(thread, root) is None  # records the call site
        set_increment(root, 2, 0x0303)
        assert vm.run(thread, root) is None  # unwinds a contribution
        assert thread.frames == []
        assert thread.stack_state == thread.expected_stack_state() == 0
        assert vm.run(thread, root) is None
        # every operation entered root as the only frame, from state 0
        assert [(frames, state) for _, frames, state in entries] == [
            ([(root, None, 0)], 0)
        ] * 3
        assert all(ctx is vm.context(thread) for ctx, _, _ in entries)


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


class TestWorkClockAccounting:
    def test_each_charge_truncates_on_its_own_under_zgc(self, exec_backend):
        vm, _ = build_vm("zgc", heap_mb=16)
        deltas = {}

        def body(ctx):
            before = vm.clock.now_ns
            ctx.alloc(1, 64)
            deltas["alloc"] = vm.clock.now_ns - before
            before = vm.clock.now_ns
            ctx.work(10)
            deltas["work"] = vm.clock.now_ns - before

        vm.run(vm.spawn_thread(), Method("charged", "app.Edge", body, bytecode_size=100))
        # 1.22 x the 30 ns allocation base, 10 ns of work and the 20 ns
        # call charge: 36.6, 12.2 and 24.4 ns, each truncated on its own
        assert deltas == {"alloc": 36, "work": 12}
        assert vm.clock.now_ns == vm.clock.total_mutator_ns == 24 + 36 + 12

    def test_negative_work_is_refused_and_leaves_the_clock(self, exec_backend):
        vm = make_vm()
        ctx = vm.context(vm.spawn_thread())
        ctx.work(100)
        now_ns, mutator_ns = vm.clock.now_ns, vm.clock.total_mutator_ns
        with pytest.raises(ValueError, match="cannot move backwards"):
            ctx.work(-1)
        assert vm.clock.now_ns == now_ns
        assert vm.clock.total_mutator_ns == mutator_ns


def run_dacapo_on_zgc(backend, mode, operations=200):
    """A call-heavy DaCapo calibration with ROLP's profiler attached, on
    ZGC: its 1.22 barrier factor leaves a fraction on every call,
    allocation, work and profiling charge, so the clock depends on each
    charge being truncated on its own."""
    previous = set_backend(backend)
    try:
        workload = DaCapoWorkload(get_spec("jython"), seed=11)
        # a 256 KB heap of 32 KB regions, small enough for two ZGC cycles
        heap = RegionHeap(256 << 10, 32 << 10)
        vm = JavaVM(
            ZGCCollector(heap, BandwidthModel()),
            RolpProfiler(RolpConfig()),
            VMFlags(call_profiling_mode=mode),
        )
        workload.build(vm)
        for op_index in range(operations):
            workload.run_op(op_index)
    finally:
        set_backend(previous)
    return vm


class TestNonIntegerMutatorFactor:
    @pytest.mark.parametrize("mode", ["real", "slow"])
    def test_backends_agree_on_zgc(self, mode):
        observed = {}
        for backend in BACKENDS:
            vm = run_dacapo_on_zgc(backend, mode)
            clock = vm.clock
            assert clock.now_ns == clock.total_mutator_ns + clock.total_pause_ns
            observed[backend] = {
                "now_ns": clock.now_ns,
                "total_mutator_ns": clock.total_mutator_ns,
                "total_pause_ns": clock.total_pause_ns,
                "profiling_tax_ns": repr(vm.profiling_tax_ns),
                "allocations": vm.allocations,
                "bytes_allocated": vm.bytes_allocated,
            }
        assert observed["reference"] == observed["fast"]
        # non-vacuous: the factor is fractional and every kind of charge ran
        assert vm.collector.mutator_overhead_factor % 1
        assert vm.profiling_tax_ns > 0
        assert vm.allocations > 0
        assert vm.collector.pauses
