"""A phase-shifting workload: the paper's dynamic-workload scenario.

ROLP's third design goal is coping with *unknown/dynamic* workloads —
the case where offline profiles (POLM2) and hand annotations (NG2C) go
stale.  This workload makes the scenario first-class: one allocation
context whose lifetime profile changes at a configurable phase
boundary.

* **Phase 1 (cache-heavy)** — every object from the context joins a
  bounded cache: middle-lived, worth pretenuring.
* **Phase 2 (request-heavy)** — only ``residual_cache_fraction`` of the
  objects stay cached; the rest die within the request.  A pretenured
  context now produces mostly-dead regions dotted with live stragglers
  — exactly the fragmentation signature Section 6's decrement loop
  keys on.

Under ROLP the pauses step down in phase 1 (learning), degrade at the
shift, then recover as the estimate is walked back; under an offline
profile they degrade at the shift and never recover.
"""

from __future__ import annotations

from typing import List

from repro.heap.object_model import SimObject
from repro.runtime import JavaVM, Method
from repro.workloads.base import Workload


class PhaseShiftWorkload(Workload):
    """Cache-heavy phase 1, request-heavy phase 2.

    Parameters
    ----------
    shift_at_op:
        Operation index of the phase boundary.
    residual_cache_fraction:
        Fraction of phase-2 allocations that stay cached (the live
        stragglers that make the old regions fragment).
    """

    name = "phase-shift"
    profiled_packages = ("app.data",)
    heap_mb = 24
    young_regions = 2
    default_ops = 200_000

    def __init__(
        self,
        shift_at_op: int = 100_000,
        cache_limit_bytes: int = 8 << 20,
        residual_cache_fraction: float = 0.02,
        object_bytes: int = 2048,
        reverse: bool = False,
        seed: int = 42,
    ) -> None:
        super().__init__(seed)
        if not 0.0 <= residual_cache_fraction <= 1.0:
            raise ValueError("residual_cache_fraction must be in [0, 1]")
        self.shift_at_op = shift_at_op
        self.cache_limit_bytes = cache_limit_bytes
        self.residual_cache_fraction = residual_cache_fraction
        self.object_bytes = object_bytes
        #: reverse=True runs request-heavy first, cache-heavy second —
        #: the lifetime-*increase* direction (objects suddenly living
        #: longer), which strands a stale young-everything profile
        self.reverse = reverse

        self.cache: List[SimObject] = []
        self.cache_bytes = 0
        self.phase = 1
        self._counter = 0

    # -- method graph -------------------------------------------------------------

    def build(self, vm: JavaVM) -> None:
        self.vm = vm
        self.make_thread("shift-worker")

        def handle(ctx):
            self._counter += 1
            cache_phase = 1 if not self.reverse else 2
            cache_fraction = (
                1.0
                if self.phase == cache_phase
                else self.residual_cache_fraction
            )
            keep = (self._counter * 0.6180339887) % 1.0 < cache_fraction
            if keep:
                obj = ctx.alloc(1, self.object_bytes)
                self.cache.append(obj)
                self.cache_bytes += obj.size
                if self.cache_bytes >= self.cache_limit_bytes:
                    self._evict_all(ctx.now_ns)
            else:
                ctx.alloc(1, self.object_bytes, lives_ns=20_000)
            ctx.work(2_000)

        self.m_handle = Method(
            "handle", "app.data.Handler", handle, bytecode_size=150
        )
        self.annotated_sites = 1

    def _evict_all(self, now_ns: int) -> None:
        for obj in self.cache:
            obj.kill_at(now_ns)
        self.cache.clear()
        self.cache_bytes = 0

    # -- operations --------------------------------------------------------------------

    def run_op(self, op_index: int) -> None:
        if self.vm is None:
            raise RuntimeError("build() must run first")
        if op_index == self.shift_at_op:
            self.phase = 2
        self.vm.run(self.threads[0], self.m_handle)

    def site_id(self) -> int:
        """The shifting context's allocation-site id (0 before JIT)."""
        site = self.m_handle.alloc_sites.get(1)
        return site.site_id if site else 0
