"""Seeded adversarial workload generator (the fuzzer's genome).

Every other workload in the reproduction is friendly-by-construction:
its demography was designed so ROLP's inference *should* handle it.
This module inverts that.  A :class:`DemographyGenome` is a compact,
fully scalar description of a hostile demography — lifetime classes,
context-collision pressure, lifetime oscillation, allocation
burstiness — and :class:`AdversarialWorkload` expands a genome into a
deterministic workload whose operation stream depends only on
``(genome, seed)``.  The fuzz loop (:mod:`repro.bench.fuzz`) mutates
genomes toward objectives (maximize context conflicts, inference
drift, tail pauses) and shrinks the ones that trip the oracle.

The hostile ingredients, and why each hurts inference:

* **collision sites** — shared factory methods reached through
  ``collision_fanout`` caller paths that demand *different* lifetime
  classes.  Each factory's single allocation site produces a
  multi-triangle age curve: exactly the allocation-context conflict of
  paper Section 5, at a density the paper's workloads never reach
  (Cassandra has 2 such sites; a genome can carry 64).
* **oscillation** — sites whose lifetime class flips every
  ``oscillation_period_ops`` operations.  When the period straddles the
  16-GC inference window, even a *split* context keeps producing
  multi-modal curves, so conflicts never resolve and estimates thrash.
* **burstiness** — every ``burst_every_ops`` operations a burst of
  ``burst_size`` extra allocations lands at once, distorting the
  steady-rate inflow correction inference applies to age column 0.

Genome operations (:func:`random_genome`, :meth:`DemographyGenome.mutate`,
:meth:`DemographyGenome.shrink_candidates`) are deterministic under a
caller-provided RNG, never leave the valid-spec domain
(:meth:`DemographyGenome.validate`), and shrinking strictly reduces
:meth:`DemographyGenome.complexity`, so shrink loops terminate.
"""

from __future__ import annotations

import json
import random
from collections import deque
from dataclasses import dataclass, replace
from typing import Deque, Dict, List, Optional, Tuple

from repro.heap.object_model import SimObject
from repro.runtime import JavaVM, Method
from repro.workloads.base import Workload

#: lifetime-class kinds a genome may use
CLASS_KINDS = ("young", "queued", "oscillating")

#: domain bounds — every genome field is clamped into these ranges, and
#: validate() enforces them (mutation and shrinking must stay inside)
BOUNDS: Dict[str, Tuple[int, int]] = {
    "size_bytes": (16, 4096),
    "lives_ns": (1_000, 5_000_000),
    "lifetime_bytes": (64 << 10, 24 << 20),
    "weight": (1, 8),
    "classes": (1, 8),
    "collision_sites": (0, 64),
    "collision_fanout": (2, 8),
    "oscillation_period_ops": (0, 32_768),
    "burst_every_ops": (0, 8_192),
    "burst_size": (0, 64),
    "threads": (1, 8),
    "heap_mb": (16, 96),
    # floor of 2: a single-region eden re-trips the collect trigger on
    # every allocation checkpoint (the current partially-filled region
    # already satisfies ``eden regions >= young_regions``), which is a
    # collector pathology, not a demography
    "young_regions": (2, 4),
}

#: minimum meaningful oscillation period (a period of a handful of ops
#: degenerates into uniform noise rather than phase behaviour)
MIN_OSCILLATION_PERIOD = 64
MIN_BURST_EVERY = 16


def _clamp(name: str, value: int) -> int:
    low, high = BOUNDS[name]
    return max(low, min(high, int(value)))


@dataclass(frozen=True)
class LifetimeClass:
    """One lifetime class objects of this demography may belong to."""

    #: object size in bytes
    size_bytes: int
    #: "young" (dies after lives_ns), "queued" (dies after
    #: lifetime_bytes of subsequent allocation) or "oscillating"
    #: (alternates between the two behaviours each oscillation phase)
    kind: str
    #: nanosecond lifetime for the young behaviour
    lives_ns: int
    #: allocation-volume lifetime for the queued behaviour
    lifetime_bytes: int
    #: relative allocation weight among the genome's classes
    weight: int

    def validate(self) -> None:
        if self.kind not in CLASS_KINDS:
            raise ValueError("unknown lifetime-class kind %r" % (self.kind,))
        for field_name in ("size_bytes", "lives_ns", "lifetime_bytes", "weight"):
            value = getattr(self, field_name)
            low, high = BOUNDS[field_name]
            if not isinstance(value, int) or not low <= value <= high:
                raise ValueError(
                    "lifetime-class %s=%r outside [%d, %d]"
                    % (field_name, value, low, high)
                )

    def as_dict(self) -> Dict[str, object]:
        return {
            "size_bytes": self.size_bytes,
            "kind": self.kind,
            "lives_ns": self.lives_ns,
            "lifetime_bytes": self.lifetime_bytes,
            "weight": self.weight,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "LifetimeClass":
        return cls(
            size_bytes=int(data["size_bytes"]),
            kind=str(data["kind"]),
            lives_ns=int(data["lives_ns"]),
            lifetime_bytes=int(data["lifetime_bytes"]),
            weight=int(data["weight"]),
        )


@dataclass(frozen=True)
class DemographyGenome:
    """The fuzzer's genome: a complete hostile-demography spec."""

    classes: Tuple[LifetimeClass, ...]
    #: shared factories reached through conflicting caller paths
    collision_sites: int
    #: caller paths per factory (cycling through the lifetime classes)
    collision_fanout: int
    #: 0 = static lifetimes; otherwise ops per oscillation half-phase
    oscillation_period_ops: int
    #: 0 = no bursts; otherwise ops between allocation bursts
    burst_every_ops: int
    #: extra allocations per burst
    burst_size: int
    threads: int
    heap_mb: int
    young_regions: int

    # -- validity ----------------------------------------------------------------

    def validate(self) -> None:
        """Raise ``ValueError`` unless the genome is inside the domain."""
        low, high = BOUNDS["classes"]
        if not low <= len(self.classes) <= high:
            raise ValueError(
                "genome must carry %d..%d lifetime classes, has %d"
                % (low, high, len(self.classes))
            )
        for cls in self.classes:
            cls.validate()
        for field_name in (
            "collision_sites",
            "collision_fanout",
            "oscillation_period_ops",
            "burst_every_ops",
            "burst_size",
            "threads",
            "heap_mb",
            "young_regions",
        ):
            value = getattr(self, field_name)
            low, high = BOUNDS[field_name]
            if not isinstance(value, int) or not low <= value <= high:
                raise ValueError(
                    "genome %s=%r outside [%d, %d]" % (field_name, value, low, high)
                )
        if self.oscillation_period_ops and (
            self.oscillation_period_ops < MIN_OSCILLATION_PERIOD
        ):
            raise ValueError(
                "oscillation_period_ops must be 0 or >= %d" % MIN_OSCILLATION_PERIOD
            )
        if self.burst_every_ops and self.burst_every_ops < MIN_BURST_EVERY:
            raise ValueError("burst_every_ops must be 0 or >= %d" % MIN_BURST_EVERY)
        if bool(self.burst_every_ops) != bool(self.burst_size):
            raise ValueError("burst_every_ops and burst_size must be both zero or both set")

    # -- serialization -----------------------------------------------------------

    def as_dict(self) -> Dict[str, object]:
        return {
            "classes": [cls.as_dict() for cls in self.classes],
            "collision_sites": self.collision_sites,
            "collision_fanout": self.collision_fanout,
            "oscillation_period_ops": self.oscillation_period_ops,
            "burst_every_ops": self.burst_every_ops,
            "burst_size": self.burst_size,
            "threads": self.threads,
            "heap_mb": self.heap_mb,
            "young_regions": self.young_regions,
        }

    def encode(self) -> str:
        """Canonical JSON form: the fuzz cell parameter and the corpus
        representation.  Canonical (sorted keys, fixed separators) so
        equal genomes encode to equal bytes — cell keys, cache entries
        and corpus digests all depend on that."""
        return json.dumps(self.as_dict(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "DemographyGenome":
        genome = cls(
            classes=tuple(
                LifetimeClass.from_dict(item) for item in data["classes"]  # type: ignore[union-attr]
            ),
            collision_sites=int(data["collision_sites"]),
            collision_fanout=int(data["collision_fanout"]),
            oscillation_period_ops=int(data["oscillation_period_ops"]),
            burst_every_ops=int(data["burst_every_ops"]),
            burst_size=int(data["burst_size"]),
            threads=int(data["threads"]),
            heap_mb=int(data["heap_mb"]),
            young_regions=int(data["young_regions"]),
        )
        genome.validate()
        return genome

    @classmethod
    def decode(cls, text: str) -> "DemographyGenome":
        return cls.from_dict(json.loads(text))

    # -- search operators --------------------------------------------------------

    def complexity(self) -> int:
        """Monotone size measure for shrinking: every shrink candidate
        strictly reduces it, so shrink loops terminate."""
        return (
            len(self.classes)
            + self.collision_sites
            + self.collision_fanout
            + (1 if self.oscillation_period_ops else 0)
            + self.burst_size
            + self.threads
            + self.heap_mb // 16
            + self.young_regions
        )

    def mutate(self, rng: random.Random) -> "DemographyGenome":
        """One seeded mutation; always returns a valid genome."""
        choices = [
            "tweak_class",
            "add_class",
            "drop_class",
            "collision_sites",
            "collision_fanout",
            "oscillation",
            "burst",
            "threads",
            "heap",
        ]
        mutated = self
        kind = rng.choice(choices)
        if kind == "tweak_class":
            index = rng.randrange(len(self.classes))
            mutated = replace(
                self,
                classes=self.classes[:index]
                + (_mutate_class(self.classes[index], rng),)
                + self.classes[index + 1:],
            )
        elif kind == "add_class" and len(self.classes) < BOUNDS["classes"][1]:
            mutated = replace(self, classes=self.classes + (_random_class(rng),))
        elif kind == "drop_class" and len(self.classes) > BOUNDS["classes"][0]:
            index = rng.randrange(len(self.classes))
            mutated = replace(
                self, classes=self.classes[:index] + self.classes[index + 1:]
            )
        elif kind == "collision_sites":
            mutated = replace(
                self,
                collision_sites=_clamp(
                    "collision_sites",
                    self.collision_sites + rng.choice((-8, -2, 2, 8, 16)),
                ),
            )
        elif kind == "collision_fanout":
            mutated = replace(
                self,
                collision_fanout=_clamp(
                    "collision_fanout", self.collision_fanout + rng.choice((-1, 1, 2))
                ),
            )
        elif kind == "oscillation":
            if self.oscillation_period_ops and rng.random() < 0.25:
                period = 0
            else:
                period = max(
                    MIN_OSCILLATION_PERIOD,
                    _clamp(
                        "oscillation_period_ops",
                        rng.choice((128, 256, 512, 1024, 2048, 4096)),
                    ),
                )
            mutated = replace(self, oscillation_period_ops=period)
        elif kind == "burst":
            if self.burst_every_ops and rng.random() < 0.25:
                mutated = replace(self, burst_every_ops=0, burst_size=0)
            else:
                mutated = replace(
                    self,
                    burst_every_ops=max(
                        MIN_BURST_EVERY,
                        _clamp("burst_every_ops", rng.choice((64, 128, 256, 512))),
                    ),
                    burst_size=max(1, _clamp("burst_size", rng.choice((4, 8, 16, 32)))),
                )
        elif kind == "threads":
            mutated = replace(
                self, threads=_clamp("threads", self.threads + rng.choice((-1, 1)))
            )
        elif kind == "heap":
            mutated = replace(
                self, heap_mb=_clamp("heap_mb", self.heap_mb + rng.choice((-16, 16)))
            )
        mutated.validate()
        return mutated

    def shrink_candidates(self) -> List["DemographyGenome"]:
        """Simpler genomes to try during minimization, in deterministic
        order.  Every candidate is valid and has strictly smaller
        :meth:`complexity` than ``self``."""
        candidates: List[DemographyGenome] = []

        def consider(candidate: "DemographyGenome") -> None:
            candidate.validate()
            assert candidate.complexity() < self.complexity()
            candidates.append(candidate)

        if self.collision_sites > 0:
            for target in (0, self.collision_sites // 2, self.collision_sites - 1):
                if 0 <= target < self.collision_sites:
                    consider(replace(self, collision_sites=target))
        if len(self.classes) > BOUNDS["classes"][0]:
            for index in range(len(self.classes)):
                consider(
                    replace(
                        self,
                        classes=self.classes[:index] + self.classes[index + 1:],
                    )
                )
        if self.collision_fanout > BOUNDS["collision_fanout"][0]:
            consider(replace(self, collision_fanout=self.collision_fanout - 1))
        if self.oscillation_period_ops:
            consider(replace(self, oscillation_period_ops=0))
        if self.burst_size:
            consider(replace(self, burst_every_ops=0, burst_size=0))
        if self.threads > BOUNDS["threads"][0]:
            consider(replace(self, threads=self.threads - 1))
        if self.heap_mb - 16 >= BOUNDS["heap_mb"][0]:
            consider(replace(self, heap_mb=self.heap_mb - 16))
        if self.young_regions > BOUNDS["young_regions"][0]:
            consider(replace(self, young_regions=self.young_regions - 1))
        # dedupe, preserving order (dropping equal-valued classes can
        # produce identical candidates)
        seen = set()
        unique: List[DemographyGenome] = []
        for candidate in candidates:
            key = candidate.encode()
            if key not in seen:
                seen.add(key)
                unique.append(candidate)
        return unique


def _random_class(rng: random.Random) -> LifetimeClass:
    return LifetimeClass(
        size_bytes=rng.choice((32, 64, 128, 256, 512, 1024, 2048)),
        kind=rng.choice(CLASS_KINDS),
        lives_ns=rng.choice((5_000, 20_000, 80_000, 400_000, 2_000_000)),
        lifetime_bytes=rng.choice((128 << 10, 512 << 10, 2 << 20, 8 << 20)),
        weight=rng.randint(*BOUNDS["weight"]),
    )


def _mutate_class(cls: LifetimeClass, rng: random.Random) -> LifetimeClass:
    field_name = rng.choice(
        ("size_bytes", "kind", "lives_ns", "lifetime_bytes", "weight")
    )
    if field_name == "kind":
        return replace(cls, kind=rng.choice(CLASS_KINDS))
    if field_name == "size_bytes":
        return replace(
            cls, size_bytes=rng.choice((32, 64, 128, 256, 512, 1024, 2048))
        )
    if field_name == "lives_ns":
        return replace(
            cls, lives_ns=rng.choice((5_000, 20_000, 80_000, 400_000, 2_000_000))
        )
    if field_name == "lifetime_bytes":
        return replace(
            cls, lifetime_bytes=rng.choice((128 << 10, 512 << 10, 2 << 20, 8 << 20))
        )
    return replace(cls, weight=rng.randint(*BOUNDS["weight"]))


def random_genome(rng: random.Random) -> DemographyGenome:
    """A fresh seeded genome; deterministic per RNG state."""
    classes = tuple(
        _random_class(rng) for _ in range(rng.randint(2, 4))
    )
    oscillation = rng.choice((0, 0, 256, 1024, 4096))
    burst_every = rng.choice((0, 0, 64, 256))
    genome = DemographyGenome(
        classes=classes,
        collision_sites=rng.choice((0, 2, 8, 16, 32)),
        collision_fanout=rng.choice((2, 3, 4)),
        oscillation_period_ops=oscillation,
        burst_every_ops=burst_every,
        burst_size=rng.choice((4, 8, 16)) if burst_every else 0,
        threads=rng.choice((1, 2, 4)),
        heap_mb=rng.choice((16, 32, 48)),
        young_regions=rng.choice((2, 3, 4)),
    )
    genome.validate()
    return genome


#: the registry's default genome: a demography engineered for maximum
#: context-collision pressure with inference-window-straddling
#: oscillation — the canonical hostile input the differential and
#: corpus tests replay
HOSTILE_DEFAULT = DemographyGenome(
    classes=(
        LifetimeClass(
            size_bytes=128, kind="young", lives_ns=20_000,
            lifetime_bytes=128 << 10, weight=4,
        ),
        LifetimeClass(
            size_bytes=256, kind="queued", lives_ns=20_000,
            lifetime_bytes=2 << 20, weight=2,
        ),
        LifetimeClass(
            size_bytes=192, kind="oscillating", lives_ns=10_000,
            lifetime_bytes=4 << 20, weight=2,
        ),
    ),
    collision_sites=32,
    collision_fanout=4,
    oscillation_period_ops=512,
    burst_every_ops=128,
    burst_size=16,
    threads=4,
    heap_mb=32,
    young_regions=2,
)


class _VolumeExpiry:
    """Kills queued objects a fixed allocation volume after birth, with
    a hard cap on the retained population so a hostile genome cannot
    out-allocate the heap."""

    __slots__ = ("_queue",)

    def __init__(self) -> None:
        self._queue: Deque[Tuple[int, SimObject]] = deque()

    def add(self, obj: SimObject, deadline_bytes: int) -> None:
        self._queue.append((deadline_bytes, obj))

    def expire(self, bytes_allocated: int, now_ns: int, max_retained: int) -> None:
        queue = self._queue
        while queue and (
            queue[0][0] <= bytes_allocated or len(queue) > max_retained
        ):
            _, obj = queue.popleft()
            obj.kill_at(now_ns)


class AdversarialWorkload(Workload):
    """A genome, expanded into a runnable workload.

    The operation stream is a pure function of ``(genome, seed)``:
    every choice comes from the seeded RNG or from ``op_index``
    arithmetic, so two instances with equal arguments replay identical
    allocation/call/lifetime sequences — the property the differential
    fingerprint oracle rests on.
    """

    name = "adversarial"
    profiled_packages = ("adversarial",)

    #: caller-path invocations per operation: enough traffic that every
    #: collision factory accumulates min_samples within one inference
    #: window even on large genomes
    CALLS_PER_OP = 8

    def __init__(
        self,
        genome: Optional[DemographyGenome] = None,
        seed: int = 42,
    ) -> None:
        super().__init__(seed)
        self.genome = genome or HOSTILE_DEFAULT
        self.genome.validate()
        self.heap_mb = self.genome.heap_mb
        self.young_regions = self.genome.young_regions
        self.default_ops = 20_000

        self.factories: List[Method] = []
        self.callers: List[Method] = []
        self.direct_methods: List[Method] = []
        self.expiry = _VolumeExpiry()
        #: queued-object population cap: a quarter of the heap in
        #: objects of the genome's mean size
        mean_size = max(
            16,
            sum(c.size_bytes * c.weight for c in self.genome.classes)
            // max(1, sum(c.weight for c in self.genome.classes)),
        )
        self.max_retained = max(64, (self.genome.heap_mb << 20) // 4 // mean_size)
        #: weighted class schedule (deterministic round-robin over
        #: weights, no RNG in the hot loop)
        self._class_schedule: List[int] = []
        for index, cls in enumerate(self.genome.classes):
            self._class_schedule.extend([index] * cls.weight)

    # -- lifetime plumbing --------------------------------------------------------

    def _phase(self, op_index: int) -> int:
        period = self.genome.oscillation_period_ops
        if not period:
            return 0
        return (op_index // period) % 2

    def _lifetime_args(self, cls: LifetimeClass, op_index: int):
        """``(lives_ns, queue_lifetime_bytes)`` for one allocation —
        exactly one of the two is set."""
        kind = cls.kind
        if kind == "oscillating":
            kind = "young" if self._phase(op_index) == 0 else "queued"
        if kind == "young":
            return cls.lives_ns, None
        return None, cls.lifetime_bytes

    def _allocate(self, ctx, bci: int, cls: LifetimeClass, op_index: int) -> SimObject:
        lives_ns, queue_bytes = self._lifetime_args(cls, op_index)
        obj = ctx.alloc(bci, cls.size_bytes, lives_ns=lives_ns)
        if queue_bytes is not None:
            self.expiry.add(obj, self.vm.bytes_allocated + queue_bytes)
        return obj

    # -- construction ------------------------------------------------------------

    def build(self, vm: JavaVM) -> None:
        self.vm = vm
        genome = self.genome
        for i in range(genome.threads):
            self.make_thread("adversary-%d" % i)

        # Collision factories: one allocation site each, lifetime class
        # decided by the caller — the conflict machine.
        for i in range(genome.collision_sites):

            def factory_body(ctx, cls, op_index, _i=i):
                ctx.work(40)
                obj = self._allocate(ctx, 1, cls, op_index)
                self._allocate(ctx, 1, cls, op_index)
                return obj

            self.factories.append(
                Method(
                    "create%d" % i,
                    "adversarial.gen.Factory%d" % i,
                    factory_body,
                    bytecode_size=80,
                )
            )

        # Caller paths: collision_fanout distinct methods per factory,
        # each binding a different lifetime class (cycled).
        for i, factory in enumerate(self.factories):
            for path in range(genome.collision_fanout):
                cls = genome.classes[(i + path) % len(genome.classes)]

                def caller_body(ctx, op_index, _factory=factory, _cls=cls):
                    ctx.work(25)
                    return ctx.call(1, _factory, _cls, op_index)

                self.callers.append(
                    Method(
                        "path%d" % path,
                        "adversarial.gen.Caller%d_%d" % (i, path),
                        caller_body,
                        bytecode_size=70,
                    )
                )

        # Direct (non-conflicted) allocation methods, one per class —
        # the baseline demography the collision sites hide inside.
        for index, cls in enumerate(genome.classes):

            def direct_body(ctx, op_index, _cls=cls):
                self._allocate(ctx, 1, _cls, op_index)
                self._allocate(ctx, 1, _cls, op_index)
                self._allocate(ctx, 1, _cls, op_index)
                ctx.work(60)

            self.direct_methods.append(
                Method(
                    "churn%d" % index,
                    "adversarial.app.Direct%d" % index,
                    direct_body,
                    bytecode_size=90,
                )
            )

        # The driver: each op fans out over CALLS_PER_OP caller paths
        # (so every factory sees steady traffic from all of its
        # conflicting paths within one inference window) plus two direct
        # methods; bursts run extra direct allocations inline.
        def op_body(ctx, op_index, burst):
            callers = self.callers
            if callers:
                base = op_index * self.CALLS_PER_OP
                for k in range(self.CALLS_PER_OP):
                    ctx.call(1, callers[(base + k) % len(callers)], op_index)
            schedule = self._class_schedule
            directs = self.direct_methods
            ctx.call(2, directs[schedule[op_index % len(schedule)] % len(directs)], op_index)
            ctx.call(3, directs[schedule[(op_index + 1) % len(schedule)] % len(directs)], op_index)
            for b in range(burst):
                burst_direct = directs[
                    schedule[(op_index + b) % len(schedule)] % len(directs)
                ]
                ctx.call(4, burst_direct, op_index + b)
            ctx.work(90)

        self.m_op = Method(
            "serve", "adversarial.harness.Driver", op_body, bytecode_size=150
        )

        self.annotated_sites = 0

    # -- operations --------------------------------------------------------------

    def run_op(self, op_index: int) -> None:
        if self.vm is None:
            raise RuntimeError("build() must run first")
        genome = self.genome
        thread = self.threads[op_index % len(self.threads)]
        burst = 0
        if genome.burst_every_ops and op_index % genome.burst_every_ops == 0:
            burst = genome.burst_size
        self.vm.run(thread, self.m_op, op_index, burst)
        self.expiry.expire(
            self.vm.bytes_allocated, self.vm.clock.now_ns, self.max_retained
        )


def make_adversarial(seed: int = 42) -> AdversarialWorkload:
    """Registry constructor: the default hostile genome."""
    return AdversarialWorkload(HOSTILE_DEFAULT, seed=seed)
