"""Synthetic DaCapo benchmark generator.

Builds, from a :class:`~repro.workloads.dacapo.specs.DaCapoSpec`, a
method graph and operation loop whose profiling-relevant shape matches
the corresponding real benchmark (Table 2 of the paper):

* ``hot_methods`` service methods, each with a few call sites invoking
  helper methods — half the helpers are small enough to be inlined
  (and therefore never call-profiled, Section 7.2.1);
* ``alloc_sites`` allocation sites spread over the service methods,
  each with a fixed lifetime class (young / medium / long) so the
  volume fractions match the spec's ``lifetime_mix``;
* ``conflicts`` factory methods whose single allocation site is reached
  from two caller paths with different lifetimes — the ground truth for
  Table 2's conflict counts;
* an operation loop that sweeps a rotating window over the service
  methods so every site becomes hot (JIT-compiled) early in the run.

Medium/long-lived objects expire a fixed volume of subsequent
allocation after their birth (lifetime measured in bytes allocated, the
standard metric of the GC-demographics literature): every object of a
class lives the same allocation distance, so each site produces the
clean single-age death triangle real per-site demographics show.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional, Tuple

from repro.heap.object_model import SimObject
from repro.runtime import JavaVM, Method
from repro.workloads.base import Workload
from repro.workloads.dacapo.specs import DaCapoSpec, get_spec

#: lifetime classes
YOUNG, MEDIUM, LONG = 0, 1, 2

#: NG2C generation hints per class (hand-annotation baseline)
GEN_HINT = {YOUNG: 0, MEDIUM: 2, LONG: 8}


class _ExpiryQueue:
    """Kills each object a fixed allocation volume after its birth."""

    __slots__ = ("lifetime_bytes", "_queue")

    def __init__(self, lifetime_bytes: int) -> None:
        self.lifetime_bytes = lifetime_bytes
        self._queue: Deque[Tuple[int, SimObject]] = deque()

    def add(self, obj: SimObject, bytes_allocated: int) -> None:
        self._queue.append((bytes_allocated + self.lifetime_bytes, obj))

    def expire(self, bytes_allocated: int, now_ns: int) -> None:
        queue = self._queue
        while queue and queue[0][0] <= bytes_allocated:
            _, obj = queue.popleft()
            obj.kill_at(now_ns)


class DaCapoWorkload(Workload):
    """One synthetic DaCapo benchmark instance."""

    profiled_packages = ()  # the paper applies no filters to DaCapo
    young_regions = 2

    def __init__(self, spec: DaCapoSpec, seed: int = 42) -> None:
        super().__init__(seed)
        self.spec = spec
        self.name = "dacapo-%s" % spec.name
        self.heap_mb = spec.heap_mb
        self.default_ops = spec.default_ops

        heap_bytes = spec.heap_mb << 20
        # Lifetimes in allocation volume: medium ≈ a few young GCs,
        # long ≈ a third of the heap's allocation turnover.  The medium
        # lifetime is floored well above one eden fill (2 MB): a
        # "medium" class dying within a single GC interval would be
        # indistinguishable from young, with noisy curves to match.
        self.medium_queue = _ExpiryQueue(
            lifetime_bytes=max(heap_bytes // 12, 5 << 20)
        )
        self.long_queue = _ExpiryQueue(
            lifetime_bytes=max(heap_bytes // 3, 12 << 20)
        )

        self.services: List[Method] = []
        self.helpers: List[Method] = []
        self.factories: List[Method] = []
        self._window = 0
        self.exceptions_requested = 0

    # -- construction ------------------------------------------------------------

    def build(self, vm: JavaVM) -> None:
        self.vm = vm
        spec = self.spec
        for i in range(2):
            self.make_thread("dacapo-%s-%d" % (spec.name, i))

        package = "org.dacapo.%s" % spec.name

        # Helper (callee) methods: even indices small → inlined.
        helper_count = max(4, spec.hot_methods // 2)
        for i in range(helper_count):
            size = 20 if i % 2 == 0 else 60

            def helper_body(ctx, _i=i):
                ctx.work(120)

            self.helpers.append(
                Method(
                    "helper%d" % i,
                    "%s.util.Helpers" % package,
                    helper_body,
                    bytecode_size=size,
                )
            )

        # Conflict factories: one alloc site, lifetime chosen by caller.
        for i in range(spec.conflicts):
            def factory_body(ctx, lifetime_class, _i=i):
                ctx.work(80)
                return self._allocate(ctx, 1, lifetime_class)

            self.factories.append(
                Method(
                    "create%d" % i,
                    "%s.model.Factory%d" % (package, i),
                    factory_body,
                    bytecode_size=70,
                )
            )

        # Service methods: call sites + allocation sites.
        calls_per_service = max(1, spec.calls_per_op // spec.hot_methods)
        sites_per_service = max(1, spec.alloc_sites // spec.hot_methods)
        site_counter = 0
        for i in range(spec.hot_methods):
            site_classes: List[Tuple[int, int]] = []
            for s in range(sites_per_service):
                site_classes.append((s + 10, self._class_for_site(site_counter)))
                site_counter += 1
            helpers = [
                self.helpers[(i + j) % len(self.helpers)]
                for j in range(calls_per_service)
            ]
            factory: Optional[Method] = None
            factory_class = YOUNG
            if self.factories:
                factory = self.factories[i % len(self.factories)]
                # Alternate callers give the factory conflicting paths.
                # The parity must come from the caller's position in the
                # factory's caller list — not from the raw service index,
                # which is correlated with the factory index itself.
                factory_class = MEDIUM if (i // len(self.factories)) % 2 == 0 else YOUNG

            def service_body(
                ctx,
                allocate,
                _helpers=helpers,
                _sites=site_classes,
                _factory=factory,
                _factory_class=factory_class,
            ):
                for j, helper in enumerate(_helpers):
                    ctx.call(j + 1, helper)
                if allocate:
                    for bci, lifetime_class in _sites:
                        self._allocate(ctx, bci, lifetime_class)
                    if _factory is not None:
                        ctx.call(9, _factory, _factory_class)
                ctx.work(self.spec.work_ns_per_op / 16)

            self.services.append(
                Method(
                    "service%d" % i,
                    "%s.core.Service%d" % (package, i),
                    service_body,
                    bytecode_size=150,
                )
            )

        # The operation driver: rotates a window over the services.
        def op_body(ctx, start, breadth, allocating):
            for j in range(breadth):
                service = self.services[(start + j) % len(self.services)]
                ctx.call(j + 1, service, j < allocating)
            if self.exceptions_requested:
                self.exceptions_requested -= 1
                ctx.throw_exception("dacapo-induced", handled_depth=0)

        self.m_op = Method(
            "iterate", "%s.harness.Driver" % package, op_body, bytecode_size=200
        )

        self.annotated_sites = min(8, spec.alloc_sites)

    def _class_for_site(self, site_index: int) -> int:
        """Deterministic site → lifetime class matching the volume mix."""
        young, medium, _long = self.spec.lifetime_mix
        position = (site_index * 0.6180339887) % 1.0  # low-discrepancy
        if position < young:
            return YOUNG
        if position < young + medium:
            return MEDIUM
        return LONG

    def _allocate(self, ctx, bci: int, lifetime_class: int) -> SimObject:
        size = self.spec.obj_bytes
        if lifetime_class == YOUNG:
            return ctx.alloc(bci, size, lives_ns=25_000, gen_hint=0)
        obj = ctx.alloc(bci, size, gen_hint=GEN_HINT[lifetime_class])
        queue = self.medium_queue if lifetime_class == MEDIUM else self.long_queue
        queue.add(obj, self.vm.bytes_allocated)
        return obj

    # -- operations --------------------------------------------------------------------

    def run_op(self, op_index: int) -> None:
        if self.vm is None:
            raise RuntimeError("build() must run first")
        spec = self.spec
        thread = self.threads[op_index % len(self.threads)]
        breadth = min(len(self.services), 16)
        # How many of this op's services allocate, to hit allocs_per_op.
        sites_per_service = max(1, spec.alloc_sites // spec.hot_methods)
        allocating = max(1, min(breadth, spec.allocs_per_op // sites_per_service))
        if op_index % 97 == 0:
            self.exceptions_requested += 1
        self.vm.run(thread, self.m_op, self._window, breadth, allocating)
        self._window = (self._window + breadth) % len(self.services)
        now = self.vm.clock.now_ns
        self.medium_queue.expire(self.vm.bytes_allocated, now)
        self.long_queue.expire(self.vm.bytes_allocated, now)


def make_dacapo(name: str, seed: int = 42) -> DaCapoWorkload:
    """Convenience constructor by benchmark name."""
    return DaCapoWorkload(get_spec(name), seed=seed)
