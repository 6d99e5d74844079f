"""Trace-calibrated workloads: demographies fitted from real GC logs.

The six curated workloads encode demographies we designed; this module
derives one from *evidence* instead.  Feed it a unified-logging GC log
(``[1.234s][info][gc] GC(42) Pause Young (normal) 61M->35M(96M) ...``)
and :func:`calibrate` fits a small demographic model:

* **heap capacity** — straight from the log lines,
* **live floor** — the resident set that survives every collection
  (minimum post-GC occupancy), modelled as long-lived objects built
  once at startup,
* **reclaim fraction** — the mean fraction of occupied heap each pause
  reclaims, modelled as the probability an allocation dies young,
* **allocation per cycle** — mean heap growth between consecutive
  pauses, which sets the volume-based lifetime of the medium-lived
  (survive-a-few-GCs) population.

:class:`TracedWorkload` then replays that demography through the normal
workload machinery, so a real application's GC behaviour can be pushed
through ROLP's profiler, the runner, cache, telemetry and
flight-recorder layers unchanged.

Parsing is strict (:class:`repro.metrics.gclog.GcLogParseError`): a
malformed or time-reversed log would calibrate a silently wrong
demography, so it is rejected instead of skipped.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.metrics.gclog import GcLogRecord, parse_log
from repro.runtime import JavaVM, Method
from repro.workloads.base import Workload

#: a canned, deterministic sample log (a steadily growing service with a
#: ~21 MB resident set inside a 96 MB heap, mixed collections under
#: pressure) so the traced path is runnable without shipping real logs
SAMPLE_GC_LOG = "\n".join(
    [
        "[0.512s][info][gc] GC(0) Pause Young (normal) 24M->9M(96M) 1.912ms",
        "[1.101s][info][gc] GC(1) Pause Young (normal) 33M->12M(96M) 2.104ms",
        "[1.688s][info][gc] GC(2) Pause Young (normal) 36M->15M(96M) 2.230ms",
        "[2.290s][info][gc] GC(3) Pause Young (normal) 39M->17M(96M) 2.388ms",
        "[2.871s][info][gc] GC(4) Pause Young (mixed) 41M->19M(96M) 3.012ms",
        "[3.464s][info][gc] GC(5) Pause Young (normal) 43M->21M(96M) 2.455ms",
        "[4.049s][info][gc] GC(6) Pause Young (normal) 45M->22M(96M) 2.507ms",
        "[4.633s][info][gc] GC(7) Pause Young (mixed) 46M->21M(96M) 3.224ms",
        "[5.219s][info][gc] GC(8) Pause Young (normal) 45M->22M(96M) 2.481ms",
        "[5.804s][info][gc] GC(9) Pause Young (normal) 46M->23M(96M) 2.529ms",
        "[6.391s][info][gc] GC(10) Pause Young (mixed) 47M->21M(96M) 3.187ms",
        "[6.977s][info][gc] GC(11) Pause Young (normal) 45M->22M(96M) 2.466ms",
    ]
)


@dataclass(frozen=True)
class TraceCalibration:
    """The demographic model fitted from a GC log."""

    #: heap capacity observed in the log (MB)
    heap_mb: int
    #: resident set that survives every collection (MB)
    live_floor_mb: int
    #: mean fraction of occupied heap reclaimed per pause [0, 1]
    reclaim_fraction: float
    #: mean heap growth between consecutive pauses (MB)
    alloc_mb_per_cycle: float
    #: fraction of pauses that were mixed/full (old-region pressure)
    mixed_fraction: float
    #: number of GC lines the model was fitted from
    pause_count: int

    def validate(self) -> None:
        if self.pause_count < 2:
            raise ValueError(
                "calibration needs at least 2 GC records, got %d" % self.pause_count
            )
        if not 0.0 <= self.reclaim_fraction <= 1.0:
            raise ValueError(
                "reclaim_fraction %r outside [0, 1]" % (self.reclaim_fraction,)
            )
        if self.heap_mb <= 0 or self.live_floor_mb < 0:
            raise ValueError("non-positive heap geometry")


def calibrate(records: Sequence[GcLogRecord]) -> TraceCalibration:
    """Fit a :class:`TraceCalibration` from parsed GC records."""
    if len(records) < 2:
        raise ValueError(
            "calibration needs at least 2 GC records, got %d" % len(records)
        )
    heap_mb = max(r.heap_capacity_mb for r in records)
    live_floor_mb = min(r.heap_after_mb for r in records)
    reclaims = [
        (r.heap_before_mb - r.heap_after_mb) / r.heap_before_mb
        for r in records
        if r.heap_before_mb > 0
    ]
    reclaim_fraction = min(
        1.0, max(0.0, sum(reclaims) / len(reclaims)) if reclaims else 0.0
    )
    growths = [
        max(0, later.heap_before_mb - earlier.heap_after_mb)
        for earlier, later in zip(records, records[1:])
    ]
    alloc_mb_per_cycle = sum(growths) / len(growths)
    mixed = sum(1 for r in records if "mixed" in r.cause or "Full" in r.cause)
    calibration = TraceCalibration(
        heap_mb=heap_mb,
        live_floor_mb=live_floor_mb,
        reclaim_fraction=reclaim_fraction,
        alloc_mb_per_cycle=alloc_mb_per_cycle,
        mixed_fraction=mixed / len(records),
        pause_count=len(records),
    )
    calibration.validate()
    return calibration


def calibrate_log(text: str) -> TraceCalibration:
    """Strict-parse a unified-logging GC log and fit a calibration.

    Raises :class:`repro.metrics.gclog.GcLogParseError` on malformed or
    out-of-order input — a bad log must not silently calibrate a wrong
    demography.
    """
    return calibrate(parse_log(text, strict=True))


class TracedWorkload(Workload):
    """Replays the demography a :class:`TraceCalibration` describes.

    The operation stream is deterministic per ``(calibration, seed)``:
    startup builds the long-lived resident set, then each operation
    allocates a fixed number of objects whose death mode (die-young vs
    survive-some-GCs) follows the calibrated reclaim fraction via a
    deterministic Bresenham-style accumulator — no RNG in the hot loop.
    """

    name = "traced"
    profiled_packages = ("traced",)

    #: object size used for the churn population (bytes)
    CHURN_SIZE = 768
    #: object size used for the resident set (bytes)
    RESIDENT_SIZE = 1024
    #: churn allocations per operation — sized so a bench-scale op
    #: budget spans multiple calibrated GC cycles (~12 KB/op against
    #: the sample log's 24 MB/cycle means a cycle every ~2000 ops)
    ALLOCS_PER_OP = 16

    def __init__(
        self,
        calibration: Optional[TraceCalibration] = None,
        seed: int = 42,
        name: Optional[str] = None,
    ) -> None:
        super().__init__(seed)
        self.calibration = calibration or calibrate_log(SAMPLE_GC_LOG)
        self.calibration.validate()
        if name is not None:
            self.name = name
        self.heap_mb = max(16, self.calibration.heap_mb)
        self.default_ops = 30_000
        #: resident set is built lazily across early operations so
        #: startup itself exercises the promotion path
        self._resident_target = max(
            0, (self.calibration.live_floor_mb << 20) // self.RESIDENT_SIZE
        )
        # keep the resident set inside half the heap even on weird logs
        self._resident_target = min(
            self._resident_target,
            (self.heap_mb << 19) // self.RESIDENT_SIZE,
        )
        self._resident_built = 0
        #: survivors' volume-based lifetime: they live for about two
        #: calibrated GC cycles of allocation
        self._survivor_lifetime_bytes = max(
            64 << 10, int(2 * self.calibration.alloc_mb_per_cycle * (1 << 20))
        )
        #: die-young probability, as a Bresenham accumulator increment
        self._die_young_step = self.calibration.reclaim_fraction
        self._die_young_acc = 0.0
        self._pending: List = []

    # -- construction ------------------------------------------------------------

    def build(self, vm: JavaVM) -> None:
        self.vm = vm
        self.make_thread("traced-worker-0")
        self.make_thread("traced-worker-1")

        def resident_body(ctx, count):
            for _ in range(count):
                ctx.alloc(1, self.RESIDENT_SIZE)  # immortal resident set
            ctx.work(50)

        def churn_young_body(ctx, count):
            ctx.work(30)
            for _ in range(count):
                ctx.alloc(1, self.CHURN_SIZE, lives_ns=15_000)

        def churn_survivor_body(ctx, count):
            ctx.work(30)
            return [ctx.alloc(1, self.CHURN_SIZE) for _ in range(count)]

        self.m_resident = Method(
            "grow", "traced.app.ResidentSet", resident_body, bytecode_size=60
        )
        self.m_young = Method(
            "handle", "traced.app.Request", churn_young_body, bytecode_size=70
        )
        self.m_survivor = Method(
            "enqueue", "traced.app.Buffer", churn_survivor_body, bytecode_size=70
        )

        def op_body(ctx, op_index, resident_quota):
            if resident_quota:
                ctx.call(1, self.m_resident, resident_quota)
            die_young = 0
            for _ in range(self.ALLOCS_PER_OP):
                self._die_young_acc += self._die_young_step
                if self._die_young_acc >= 1.0:
                    self._die_young_acc -= 1.0
                    die_young += 1
            survive = self.ALLOCS_PER_OP - die_young
            if die_young:
                ctx.call(2, self.m_young, die_young)
            if survive:
                deadline = self.vm.bytes_allocated + self._survivor_lifetime_bytes
                for obj in ctx.call(3, self.m_survivor, survive):
                    self._pending.append((deadline, obj))
            ctx.work(80)

        self.m_op = Method(
            "serve", "traced.harness.Driver", op_body, bytecode_size=120
        )
        self.annotated_sites = 0

    # -- operations --------------------------------------------------------------

    def run_op(self, op_index: int) -> None:
        if self.vm is None:
            raise RuntimeError("build() must run first")
        thread = self.threads[op_index % len(self.threads)]
        # build the resident set across the first ~1000 operations
        resident_quota = 0
        if self._resident_built < self._resident_target:
            resident_quota = min(
                max(1, self._resident_target // 1000),
                self._resident_target - self._resident_built,
            )
            self._resident_built += resident_quota
        self.vm.run(thread, self.m_op, op_index, resident_quota)
        # expire survivors whose allocation-volume lifetime has passed
        pending = self._pending
        bytes_allocated = self.vm.bytes_allocated
        now_ns = self.vm.clock.now_ns
        index = 0
        while index < len(pending) and pending[index][0] <= bytes_allocated:
            pending[index][1].kill_at(now_ns)
            index += 1
        if index:
            del pending[:index]


def make_traced_sample(seed: int = 42) -> TracedWorkload:
    """Registry constructor: demography calibrated from the canned log."""
    return TracedWorkload(
        calibrate_log(SAMPLE_GC_LOG), seed=seed, name="traced-sample"
    )
