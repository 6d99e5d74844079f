"""Hot-path microbenchmarks (``rolp-bench perf``).

Four named kernels time the simulator's hottest code paths — allocation,
method entry/exit, survivor tracking and the young-GC copy loop — once
per execution backend (``reference`` and ``fast``; see
:mod:`repro.fastpath`).  Both backends of a kernel replay the identical
workload from one derived seed, so the kernel doubles as a differential
test: every run returns a *fingerprint* of the simulation's observable
state (counters, clocks, table checksums), and both backends must
produce byte-identical fingerprints.

Kernels are not runner cells: a wall-clock timing is not a pure
function of its inputs, so it must never be memoized, cached or served
as a job.  :func:`perf` calls :func:`run_kernel` directly, serially.

``perf()`` returns the ``BENCH_6.json`` payload: per kernel, the
reference timing (the pre-optimisation baseline), the fast timing, its
speedup and the fingerprint verdict, plus the process's peak RSS.  With
``repeat > 1`` each (kernel, backend) pair rebuilds its fixture and
re-times ``repeat`` times; reported ``ns_per_op`` is the median and
``cv`` the coefficient of variation (population stdev / mean) across
runs, so noisy hosts are visible in the artifact.

Wall-clock use (``time.perf_counter``) is legitimate here: the bench
package is harness scope, outside the determinism lint's simulation-core
packages.
"""

from __future__ import annotations

import random
import resource
import statistics
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

from repro import build_vm
from repro.bench.config import bench_scale, scaled_ops
from repro.bench.runner import DEFAULT_BASE_SEED, derive_seed
from repro.core.profiler import RolpConfig, RolpProfiler
from repro.fastpath import BACKENDS, set_backend
from repro.gc.g1 import G1Collector
from repro.heap import header as hdr
from repro.heap.bandwidth import BandwidthModel
from repro.heap.heap import RegionHeap
from repro.heap.object_model import IMMORTAL, SimObject
from repro.metrics.report import render_table
from repro.runtime.method import Method
from repro.runtime.vm import JavaVM, VMFlags

#: the kernel catalogue, in print order (docs/performance.md documents
#: exactly what each one exercises)
PERF_KERNELS = ("alloc", "call", "survivor", "gc_copy")

#: unscaled operation budget per kernel (ROLP_BENCH_SCALE applies)
_BASE_OPS = {
    "alloc": 60_000,
    "call": 60_000,
    "survivor": 120_000,
    "gc_copy": 30_000,
}

#: default artifact path for the CLI's ``perf`` experiment
BENCH_JSON = "bench_results/BENCH_6.json"


def kernel_ops(kernel: str) -> int:
    """The scaled operation budget for one kernel."""
    return scaled_ops(_BASE_OPS[kernel])


# ----------------------------------------------------------------- fingerprints

def _table_checksum(table) -> int:
    """Order-independent digest of the OLD table's full contents."""
    checksum = 0
    for context in sorted(table.contexts()):
        checksum = (checksum * 1000003 + context) & hdr.MASK_64
        for value in table.curve(context):
            checksum = (checksum * 1000003 + value) & hdr.MASK_64
    return checksum


# ---------------------------------------------------------------------- kernels
#
# Each kernel is ``fn(seed, ops) -> run`` where ``run() -> (ops_done,
# fingerprint)``.  Fixture construction happens in the outer call
# (untimed — building 2048 seeded objects is not the hot path being
# measured); only ``run`` is timed.  The fingerprint must cover every
# observable the optimisations could have perturbed: clock totals
# (float repr — bit equality, not tolerance), RNG-dependent counters,
# table contents, stack states.  The ambient backend (set by
# :func:`run_kernel` before fixture construction) selects the
# implementation; the op stream is identical under all of them.

KernelRun = Callable[[], Tuple[int, Dict[str, object]]]


def _kernel_alloc(seed: int, ops: int) -> KernelRun:
    """The allocation path: ``ctx.alloc`` → context resolution → sampling
    → collector placement → header install → OLD-table increment."""
    rng = random.Random(seed)
    sizes = [rng.choice((64, 128, 192, 256, 384, 512)) for _ in range(997)]
    lives = [rng.choice((5_000, 50_000, 500_000)) for _ in range(991)]
    vm, profiler = build_vm(
        "rolp",
        heap_mb=64,
        region_kb=256,
        flags=VMFlags(compile_threshold=1),
    )
    thread = vm.spawn_thread("bench")

    def body(ctx, start, count):
        for i in range(count):
            j = start + i
            ctx.alloc(j % 7, sizes[j % 997], lives[j % 991])

    method = Method("allocLoop", "bench.perf.Alloc", body, bytecode_size=120)

    def run() -> Tuple[int, Dict[str, object]]:
        done = 0
        while done < ops:
            count = min(1_000, ops - done)
            vm.run(thread, method, done, count)
            done += count
        return done, {
            "allocations": vm.allocations,
            "bytes": vm.bytes_allocated,
            "gc_cycles": vm.collector.gc_cycles,
            "now_ns": vm.clock.now_ns,
            "tax": repr(vm.profiling_tax_ns),
            "table": _table_checksum(profiler.old_table),
            "survivals": profiler.survivals_recorded,
            "lost": profiler.old_table.lost_increments,
            "stack_state": thread.stack_state,
        }

    return run


def _kernel_call(seed: int, ops: int) -> KernelRun:
    """Method entry/exit: call-site bookkeeping, the stack-state add/sub
    slow path (mode ``slow``), frame push/pop, JIT invocation counting."""
    vm, _ = build_vm(
        "rolp",
        heap_mb=64,
        region_kb=256,
        flags=VMFlags(compile_threshold=10, call_profiling_mode="slow"),
    )
    thread = vm.spawn_thread("bench")

    def leaf_body(ctx):
        return None

    # bytecode_size > inline_max_size keeps every site out of inlining,
    # so each carries a real stack-state increment once jitted
    leaf_a = Method("leafA", "bench.perf.Call", leaf_body, bytecode_size=100)
    leaf_b = Method("leafB", "bench.perf.Call", leaf_body, bytecode_size=100)

    def mid_body(ctx):
        ctx.call(1, leaf_a)
        ctx.call(2, leaf_b)

    mid = Method("mid", "bench.perf.Call", mid_body, bytecode_size=100)

    def root_body(ctx, count):
        for _ in range(count):
            ctx.call(1, mid)
            ctx.call(2, mid)

    root = Method("root", "bench.perf.Call", root_body, bytecode_size=100)
    # each root-body iteration performs 6 dynamic calls (2 mid + 4 leaf)
    iterations = max(1, ops // 6)

    def run() -> Tuple[int, Dict[str, object]]:
        done = 0
        while done < iterations:
            count = min(500, iterations - done)
            vm.run(thread, root, count)
            done += count
        return iterations * 6, {
            "invocations": [
                root.invocations,
                mid.invocations,
                leaf_a.invocations,
                leaf_b.invocations,
            ],
            "stack_state": thread.stack_state,
            "now_ns": vm.clock.now_ns,
            "tax": repr(vm.profiling_tax_ns),
            "compiled": len(vm.jit.compiled_methods),
        }

    return run


def _kernel_survivor(seed: int, ops: int) -> KernelRun:
    """Survivor tracking: the per-GC-worker buffering of survival
    records plus the end-of-pause merge into the OLD table (including
    the periodic inference pass)."""
    rng = random.Random(seed)
    profiler = RolpProfiler(RolpConfig(gc_workers=4))
    table = profiler.old_table
    for site_id in range(1, 65):
        table.register_site(site_id)
    objs: List[SimObject] = []
    for _ in range(2_048):
        # site 0 and sites 65..80 are unknown → validity-filter work;
        # a slice of biased-locked headers exercises the discard path
        context = hdr.pack_context(rng.randint(0, 80), rng.randint(0, 0xFFFF))
        obj = SimObject(64, 0, IMMORTAL, context)
        obj.header = hdr.set_age(obj.header, rng.randint(0, 15))
        if rng.random() < 0.05:
            obj.header = hdr.bias_lock(obj.header, 0xDEAD)
        objs.append(obj)
    batches = max(1, ops // len(objs))

    def run() -> Tuple[int, Dict[str, object]]:
        for gc_number in range(1, batches + 1):
            profiler.on_gc_survivors(objs, 4)
            profiler.on_gc_end(gc_number, gc_number * 1_000_000, 1_000_000.0)
        return batches * len(objs), {
            "table": _table_checksum(table),
            "recorded": profiler.survivals_recorded,
            "discarded": profiler.survivals_discarded,
            "advice": len(profiler.advice),
            "inference_passes": profiler.inference.passes_run,
        }

    return run


def _kernel_gc_copy(seed: int, ops: int) -> KernelRun:
    """The young-GC copy loop: survivor profiling, aging, re-placement.
    A tenuring threshold above ``MAX_AGE`` pins every object in survivor
    space, so each forced collection re-copies the full live set."""
    rng = random.Random(seed)
    heap = RegionHeap(64 << 20, 256 << 10)
    collector = G1Collector(
        heap, BandwidthModel(), young_regions=16, tenuring_threshold=20
    )
    profiler = RolpProfiler()
    vm = JavaVM(collector, profiler, VMFlags(compile_threshold=1))
    thread = vm.spawn_thread("bench")
    sizes = [rng.choice((96, 128, 160, 192, 256)) for _ in range(997)]

    def body(ctx, start, count):
        for i in range(count):
            j = start + i
            ctx.alloc(j % 5, sizes[j % 997])  # immortal: survives every GC

    method = Method("fill", "bench.perf.Copy", body, bytecode_size=120)
    live_objects = 16_000
    done = 0
    while done < live_objects:
        count = min(1_000, live_objects - done)
        vm.run(thread, method, done, count)
        done += count

    def run() -> Tuple[int, Dict[str, object]]:
        copies = 0
        while copies < ops:
            collector.collect_young()
            copies = sum(p.survivors for p in collector.pauses)
        return copies, {
            "bytes_copied": collector.bytes_copied_total,
            "breakdown": dict(collector.copy_breakdown),
            "gc_cycles": collector.gc_cycles,
            "now_ns": vm.clock.now_ns,
            "table": _table_checksum(profiler.old_table),
            "recorded": profiler.survivals_recorded,
            "discarded": profiler.survivals_discarded,
        }

    return run


_KERNEL_FNS = {
    "alloc": _kernel_alloc,
    "call": _kernel_call,
    "survivor": _kernel_survivor,
    "gc_copy": _kernel_gc_copy,
}


def run_kernel(
    kernel: str, seed: int, ops: int, backend_name: str = "fast", repeat: int = 1
) -> Dict[str, object]:
    """Run one kernel under one backend; the building block
    :func:`perf` and the differential tests share.

    The process-global backend switch is flipped for the duration so
    every component constructed inside captures the requested backend,
    then restored.  Fixture setup runs inside the switch window
    (components snapshot the backend at construction) but outside the
    timed region; with ``repeat > 1`` the fixture is rebuilt per run so
    runs are independent and fingerprints must agree.
    """
    repeat = max(1, int(repeat))
    previous = set_backend(backend_name)
    fingerprint: Optional[Dict[str, object]] = None
    ops_done = 0
    ns_per_op_runs: List[float] = []
    try:
        for index in range(repeat):
            run = _KERNEL_FNS[kernel](seed, ops)
            started = time.perf_counter()
            ops_done, run_fingerprint = run()
            elapsed = max(time.perf_counter() - started, 1e-9)
            ns_per_op_runs.append(elapsed * 1e9 / ops_done)
            if fingerprint is None:
                fingerprint = run_fingerprint
            elif run_fingerprint != fingerprint:
                raise AssertionError(
                    "kernel %r run %d diverged from run 0 under backend %s"
                    % (kernel, index, backend_name)
                )
    finally:
        set_backend(previous)
    ns_per_op = statistics.median(ns_per_op_runs)
    mean = statistics.fmean(ns_per_op_runs)
    cv = statistics.pstdev(ns_per_op_runs) / mean if repeat > 1 and mean else 0.0
    return {
        "kernel": kernel,
        "backend": backend_name,
        "ops": ops_done,
        "repeat": repeat,
        "elapsed_s": ns_per_op * ops_done / 1e9,
        "ops_per_s": 1e9 / ns_per_op,
        "ns_per_op": ns_per_op,
        "ns_per_op_runs": ns_per_op_runs,
        "cv": cv,
        "fingerprint": fingerprint,
    }


# ------------------------------------------------------------------- experiment

def perf(base_seed: int = DEFAULT_BASE_SEED, repeat: int = 1) -> Dict[str, object]:
    """Run every kernel through both backends, reporting progress on
    stderr; return the BENCH_6 payload.

    Runs are sequential: concurrent workers contend for cores, and a
    contended wall-clock measurement would report speedups that are
    scheduler noise.
    """
    repeat = max(1, int(repeat))
    kernels_payload: Dict[str, object] = {}
    for name in PERF_KERNELS:
        ops = kernel_ops(name)
        # both backends replay one seed; its key is the one the kernels'
        # seeds derived from when they ran as runner cells, so
        # fingerprints stay comparable across releases
        seed = derive_seed("perf_kernel(kernel=%r, ops=%r)" % (name, ops), base_seed)
        by_backend = {}
        for backend_name in BACKENDS:
            result = run_kernel(name, seed, ops, backend_name, repeat)
            by_backend[backend_name] = result
            print(
                "[perf] %s/%s %.0f ns/op" % (name, backend_name, result["ns_per_op"]),
                file=sys.stderr,
            )
        reference = by_backend["reference"]
        kernels_payload[name] = {
            "reference": _timing(reference),
            "fast": _timing(by_backend["fast"]),
            "speedup": {
                "fast": by_backend["fast"]["ops_per_s"] / reference["ops_per_s"],
            },
            "fingerprint_match": all(
                by_backend[b]["fingerprint"] == reference["fingerprint"]
                for b in BACKENDS
            ),
            "fingerprint": reference["fingerprint"],
        }
    return {
        "schema": "rolp-bench/v1",
        "experiment": "perf",
        "scale": bench_scale(),
        "repeat": repeat,
        "rss_max_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "kernels": kernels_payload,
    }


def _timing(result: Dict[str, object]) -> Dict[str, object]:
    return {
        "ops": result["ops"],
        "repeat": result["repeat"],
        "elapsed_s": result["elapsed_s"],
        "ops_per_s": result["ops_per_s"],
        "ns_per_op": result["ns_per_op"],
        "ns_per_op_runs": result["ns_per_op_runs"],
        "cv": result["cv"],
    }


def render_perf(payload: Dict[str, object]) -> str:
    rows = []
    for name in payload["kernels"]:
        entry = payload["kernels"][name]
        rows.append(
            [
                name,
                entry["reference"]["ops"],
                "%.0f" % entry["reference"]["ns_per_op"],
                "%.0f" % entry["fast"]["ns_per_op"],
                "%.2fx" % entry["speedup"]["fast"],
                "yes" if entry["fingerprint_match"] else "NO — DIVERGED",
            ]
        )
    return render_table(
        [
            "kernel",
            "ops",
            "ref ns/op",
            "fast ns/op",
            "fast speedup",
            "equivalent",
        ],
        rows,
    )
