"""Workload base classes and the run harness.

A workload is a simulated application: it declares the methods it runs
(so the JIT and package filters behave realistically), drives operations
through the VM, and manages the ground-truth lifetimes of the objects it
allocates (killing memtable entries on flush, cache entries on eviction,
and so on).

:func:`run_workload` is the single entry point the examples, benchmarks
and integration tests share: build a VM for a collector configuration,
run a workload on it, and collect a :class:`RunResult`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro import build_vm
from repro.core import PackageFilter, RolpConfig, RolpProfiler
from repro.gc.collector import PauseEvent
from repro.metrics.pauses import duration_histogram, percentile_profile
from repro.metrics.throughput import ThroughputMeter
from repro.runtime import JavaVM, Method, SimThread


class Workload:
    """Base class for simulated applications.

    Subclasses set :attr:`name`, :attr:`profiled_packages` (the Table 1
    package filters) and implement :meth:`build` and :meth:`run_op`.
    """

    #: workload identifier used in reports
    name = "base"
    #: packages handed to ROLP's package filter (paper Table 1)
    profiled_packages: Sequence[str] = ()
    #: default heap sizing
    heap_mb = 128
    #: default eden budget in regions (0 = collector default)
    young_regions = 0
    #: default operation count for a standard run
    default_ops = 100_000

    def __init__(self, seed: int = 42) -> None:
        self.seed = seed
        self.rng = random.Random(seed)
        self.vm: Optional[JavaVM] = None
        self.threads: List[SimThread] = []
        #: allocation sites carrying NG2C hand annotations (Table 1's
        #: "NG2C" column counts these code locations)
        self.annotated_sites = 0

    # -- to implement -----------------------------------------------------------

    def build(self, vm: JavaVM) -> None:
        """Create methods/threads/state.  Must set ``self.vm``."""
        raise NotImplementedError

    def run_op(self, op_index: int) -> None:
        """Execute one application operation."""
        raise NotImplementedError

    # -- helpers ------------------------------------------------------------------

    def make_thread(self, name: str) -> SimThread:
        if self.vm is None:
            raise RuntimeError("build() must run first")
        thread = self.vm.spawn_thread(name)
        self.threads.append(thread)
        return thread

    def package_filter(self) -> PackageFilter:
        if not self.profiled_packages:
            return PackageFilter.accept_all()
        return PackageFilter(include=list(self.profiled_packages))

    def count_sites(self) -> Tuple[int, int]:
        """(total allocation sites, total call sites) discovered across
        the workload's methods — denominators for Table 1/2's PAS/PMC."""
        alloc_sites = 0
        call_sites = 0
        for method in self.all_methods():
            alloc_sites += len(method.alloc_sites)
            call_sites += len(method.call_sites)
        return alloc_sites, call_sites

    def all_methods(self) -> List[Method]:
        """Every method object the workload created (for statistics)."""
        return [m for m in vars(self).values() if isinstance(m, Method)]


@dataclass
class RunResult:
    """Everything measured during one workload run."""

    workload: str
    collector: str
    operations: int
    elapsed_ms: float
    throughput_ops_s: float
    pauses: List[PauseEvent]
    max_memory_bytes: int
    gc_cycles: int
    vm_summary: Dict[str, float]
    profiler_summary: Optional[Dict[str, float]] = None

    @property
    def pause_ms(self) -> List[float]:
        return [p.duration_ms for p in self.pauses]

    def percentiles(self, percentiles: Optional[Sequence[float]] = None) -> Dict[float, float]:
        if percentiles is None:
            return percentile_profile(self.pause_ms)
        return percentile_profile(self.pause_ms, percentiles)

    def histogram(self) -> List[Tuple[str, int]]:
        return duration_histogram(self.pause_ms)

    def pause_timeline(self) -> List[Tuple[float, float]]:
        """[(pause start in s, duration in ms), ...] — Figure 10 left."""
        return [(p.start_ns / 1e9, p.duration_ms) for p in self.pauses]


def run_workload(
    workload: Workload,
    collector: str = "g1",
    operations: Optional[int] = None,
    heap_mb: Optional[int] = None,
    rolp_config: Optional[RolpConfig] = None,
    telemetry=None,
) -> RunResult:
    """Build a VM, run ``workload`` on it, return the measurements.

    ``collector`` is one of the five systems compared in the paper.  For
    the ``"rolp"`` configuration the workload's package filter is
    applied automatically (as the paper does for the large workloads).
    ``telemetry`` (a :class:`repro.telemetry.Telemetry`) enables event
    tracing and metrics for the run; the default records nothing.
    """
    operations = operations or workload.default_ops
    heap_mb = heap_mb or workload.heap_mb
    if collector == "rolp" and rolp_config is None:
        rolp_config = RolpConfig(package_filter=workload.package_filter())
    vm, profiler = build_vm(
        collector,
        heap_mb=heap_mb,
        young_regions=workload.young_regions,
        rolp_config=rolp_config,
        telemetry=telemetry,
    )
    workload.build(vm)
    for op_index in range(operations):
        workload.run_op(op_index)
    meter = ThroughputMeter(vm.clock)
    meter.record(operations)
    return RunResult(
        workload=workload.name,
        collector=collector,
        operations=operations,
        elapsed_ms=vm.clock.now_ms,
        throughput_ops_s=meter.ops_per_second(),
        pauses=list(vm.collector.pauses),
        max_memory_bytes=vm.collector.max_memory_bytes(),
        gc_cycles=vm.collector.gc_cycles,
        vm_summary=vm.summary(),
        profiler_summary=profiler.summary() if profiler is not None else None,
    )
