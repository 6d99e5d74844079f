"""Differential equivalence suite for the execution backends.

The fast backend (:mod:`repro.fastpath`) is a pure reimplementation:
under either of ``reference``/``fast``, every figure/table cell and
every hot-path kernel must produce byte-identical results.  Four layers
pin that down:

* four kernels (``alloc``, ``call``, ``survivor``, ``gc_copy``) drive
  the simulator's hottest paths and fingerprint what they touch
  (counters, clock totals, OLD-table checksums, stack states); under
  both backends each fingerprint must equal its golden in
  ``tests/goldens/kernels.json`` byte for byte, so drift in code both
  backends share fails too, not just a divergence between them,
* the rendered ``table1``/``fig6`` artifacts (stdout and ``--json-dir``
  JSON) match across both backends,
* every backend survives a level-2 invariant verification
  (``InvariantViolation``-free), and verification does not change the
  kernel fingerprints,
* the hostile demographies (the adversarial fuzz workload and the
  trace-calibrated replay) fingerprint byte-identically across both
  backends — equivalence must hold under antagonistic allocation
  patterns, not just the paper's friendly workloads.

A deliberate change to a kernel fingerprint is re-blessed like the
other goldens::

    ROLP_UPDATE_GOLDENS=1 PYTHONPATH=src python -m pytest tests/test_perf_equivalence.py
"""

import contextlib
import json
import os
import pathlib
import random
from typing import Callable, Dict, List, Tuple

import pytest

from repro import build_vm
from repro.analysis import set_default_verify_level
from repro.bench import fuzz
from repro.bench.cli import main
from repro.bench.config import scaled_ops
from repro.bench.runner import DEFAULT_BASE_SEED, derive_seed
from repro.core.profiler import RolpConfig, RolpProfiler
from repro.fastpath import BACKENDS, set_backend
from repro.gc.g1 import G1Collector
from repro.heap import header as hdr
from repro.heap.bandwidth import BandwidthModel
from repro.heap.heap import RegionHeap
from repro.heap.object_model import IMMORTAL, SimObject
from repro.runtime.method import Method
from repro.runtime.vm import JavaVM, VMFlags

SEED = 20260805

KERNEL_GOLDEN = pathlib.Path(__file__).parent / "goldens" / "kernels.json"

#: the operation budget each kernel's golden was recorded at (the golden
#: values come from the last kernel-timing record, BENCH_6.json)
KERNEL_OPS = {
    "alloc": 60_000,
    "call": 60_000,
    "survivor": 120_000,
    "gc_copy": 30_000,
}


@pytest.fixture(autouse=True)
def tiny_scale(monkeypatch, tmp_path):
    monkeypatch.setenv("ROLP_BENCH_SCALE", "0.02")
    monkeypatch.setenv("ROLP_BENCH_CACHE_DIR", str(tmp_path / "cell-cache"))


@contextlib.contextmanager
def backend_mode(name):
    previous = set_backend(name)
    try:
        yield
    finally:
        set_backend(previous)


@contextlib.contextmanager
def verify_level(level):
    set_default_verify_level(level)
    try:
        yield
    finally:
        set_default_verify_level(0)


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
# fingerprint)``.  The outer call builds the fixture (2048 seeded
# objects, a warmed method); ``run`` drives the hot path.  The
# fingerprint must cover every observable the optimisations could have
# perturbed: clock totals (float repr — bit equality, not tolerance),
# RNG-dependent counters, table contents, stack states.  The ambient
# backend (set by :func:`run_kernel` before fixture construction)
# selects the implementation; the op stream is identical under all of
# them.

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


KERNELS = {
    "alloc": _kernel_alloc,
    "call": _kernel_call,
    "survivor": _kernel_survivor,
    "gc_copy": _kernel_gc_copy,
}


def run_kernel(kernel: str, seed: int, ops: int, backend_name: str):
    """``(ops_done, fingerprint)`` of one kernel under one backend.

    Components snapshot the backend switch at construction, so it is
    flipped before the fixture is built and restored afterwards.
    """
    with backend_mode(backend_name):
        return KERNELS[kernel](seed, ops)()


def fingerprint_bytes(fingerprint):
    """The fingerprint serialized the way the golden stores it —
    equality must hold at the byte level, not merely ``==``."""
    return json.dumps(fingerprint, sort_keys=True).encode()


def rendered(capsys):
    """Stdout minus the output-path echo lines (the only lines allowed
    to differ between runs: they name run-specific tmp directories)."""
    out = capsys.readouterr().out
    return "".join(
        line
        for line in out.splitlines(keepends=True)
        if " written to " not in line
    )


class TestKernelEquivalence:
    @pytest.mark.parametrize("kernel", list(KERNELS))
    def test_fingerprints_byte_identical(self, kernel):
        ops = KERNEL_OPS[kernel]
        # the seed the golden was recorded with, derived from the key the
        # kernels had when they ran as runner cells
        seed = derive_seed("perf_kernel(kernel=%r, ops=%r)" % (kernel, ops), DEFAULT_BASE_SEED)
        results = {name: run_kernel(kernel, seed, ops, name) for name in BACKENDS}
        if os.environ.get("ROLP_UPDATE_GOLDENS") == "1":
            golden = json.loads(KERNEL_GOLDEN.read_text()) if KERNEL_GOLDEN.exists() else {}
            ops_done, fingerprint = results["reference"]
            golden[kernel] = {"ops": ops_done, "fingerprint": fingerprint}
            KERNEL_GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
        expected = json.loads(KERNEL_GOLDEN.read_text())[kernel]
        for name in BACKENDS:
            ops_done, fingerprint = results[name]
            assert ops_done == expected["ops"], name
            assert fingerprint_bytes(fingerprint) == fingerprint_bytes(
                expected["fingerprint"]
            ), (
                "kernel %s under the %s backend drifted from its golden; if the "
                "change is deliberate, re-bless with ROLP_UPDATE_GOLDENS=1" % (kernel, name)
            )

    @pytest.mark.parametrize("kernel", list(KERNELS))
    def test_fingerprints_stable_under_level2_verification(self, kernel):
        """Level-2 verification raises InvariantViolation on any heap or
        lock-discipline breakage; a clean run proves the optimised
        backends keep every invariant, and the fingerprint proves
        verification itself perturbs nothing."""
        ops = scaled_ops(KERNEL_OPS[kernel])
        _, unverified = run_kernel(kernel, SEED, ops, "fast")
        with verify_level(2):
            for name in BACKENDS:
                _, verified = run_kernel(kernel, SEED, ops, name)
                assert fingerprint_bytes(verified) == fingerprint_bytes(
                    unverified
                ), name


class TestHostileDemographyEquivalence:
    """The adversarial and trace-calibrated workloads are built to be
    hostile (context-collision pressure, lifetime oscillation, bursts);
    the backends must still agree byte-for-byte — including under the
    compressed fuzz inference period and live level-2 verification."""

    # op counts chosen as the smallest that still drive GC cycles
    # through each demography (the traced heap is 96 MB, so it needs
    # more allocation to reach its first collection)
    @pytest.mark.parametrize(
        "workload,ops", [("adversarial", 1_500), ("traced-sample", 2_500)]
    )
    def test_fingerprints_byte_identical(self, workload, ops):
        fingerprints = {
            name: json.dumps(
                fuzz.fingerprint_workload(workload, SEED, ops, name),
                sort_keys=True,
            ).encode()
            for name in BACKENDS
        }
        reference = fingerprints["reference"]
        assert json.loads(reference)["gc_cycles"] > 0, "demography produced no GCs"
        for name in BACKENDS:
            assert fingerprints[name] == reference, name


class TestArtifactEquivalence:
    def run_cli(self, tmp_path, capsys, tag, argv, backend):
        json_dir = tmp_path / tag
        with backend_mode(backend):
            assert main(argv + ["--no-cache", "--json-dir", str(json_dir)]) == 0
        payloads = sorted(json_dir.glob("*.json"))
        assert payloads, "no JSON artifact written"
        return payloads[0].read_bytes(), rendered(capsys)

    def test_table1_byte_identical_across_backends(self, tmp_path, capsys):
        argv = ["table1", "--workloads", "lucene"]
        outputs = {
            name: self.run_cli(tmp_path, capsys, name, argv, name)
            for name in BACKENDS
        }
        for name in BACKENDS:
            assert outputs[name] == outputs["reference"], name
        assert "Table 1" in outputs["reference"][1]

    def test_fig6_byte_identical_across_backends(self, tmp_path, capsys):
        argv = ["fig6", "--benchmarks", "avrora"]
        outputs = {
            name: self.run_cli(tmp_path, capsys, name, argv, name)
            for name in BACKENDS
        }
        for name in BACKENDS:
            assert outputs[name] == outputs["reference"], name
        assert "Figure 6" in outputs["reference"][1]


class TestVerifiedModes:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_fig6_level2_verify_clean(self, capsys, backend):
        with backend_mode(backend):
            assert main(["fig6", "--benchmarks", "avrora", "--verify"]) == 0
        assert "[verify] level 2: all invariant checks passed" in capsys.readouterr().err

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_table1_level2_verify_clean(self, capsys, backend):
        with backend_mode(backend):
            assert main(["table1", "--workloads", "lucene", "--verify"]) == 0
        assert "[verify] level 2: all invariant checks passed" in capsys.readouterr().err
