"""Simulated heap objects.

A :class:`SimObject` stands in for a Java object on the simulated heap.
It carries:

* the 64-bit header (allocation context, age, bias/lock bits) that ROLP
  reads and writes — see :mod:`repro.heap.header`;
* its size in bytes, used for region accounting and copy costs;
* a hidden *death time* assigned by the workload.  This is the liveness
  oracle: the collector uses it to decide reachability (trace-driven GC
  simulation), but the profiler never reads it — ROLP must infer
  lifetimes from survival counts exactly as in the paper.

Objects are deliberately lightweight (``__slots__``) because large-scale
workloads allocate millions of them per run.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.heap import header as hdr

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.heap.region import Region

#: Death time meaning "still referenced; lifetime unknown/unbounded yet".
IMMORTAL = float("inf")

# Header field constants, bound locally: SimObject's header accessors
# run once per object per GC cycle (millions of times per workload), so
# they inline the bit operations instead of calling into the header
# module.  The formulas are the same ones header.py defines; the
# property suite pins the equivalence.
_MASK_32 = hdr.MASK_32
_CONTEXT_SHIFT = hdr.CONTEXT_SHIFT
_AGE_MASK = hdr.AGE_MASK
_AGE_SHIFT = hdr.AGE_SHIFT
_AGE_ONE = 1 << hdr.AGE_SHIFT
_BIASED_MASK = hdr.BIASED_MASK


class SimObject:
    """A single simulated object.

    Parameters
    ----------
    size:
        Object size in bytes (header included).
    alloc_time_ns:
        Virtual time of allocation.
    death_time_ns:
        Virtual time at which the workload drops the last reference.
        ``IMMORTAL`` while unknown; workloads may shorten it later via
        :meth:`kill_at` (e.g. a memtable flush frees its entries).
    context:
        32-bit allocation context installed in the header (0 when the
        allocation site is not profiled, e.g. cold code).
    """

    __slots__ = (
        "size",
        "alloc_time_ns",
        "death_time_ns",
        "header",
        "region",
        "copies",
    )

    def __init__(
        self,
        size: int,
        alloc_time_ns: int,
        death_time_ns: float = IMMORTAL,
        context: int = 0,
    ) -> None:
        if size <= 0:
            raise ValueError("object size must be positive")
        self.size = int(size)
        self.alloc_time_ns = int(alloc_time_ns)
        self.death_time_ns = death_time_ns
        # == hdr.fresh_header(context), inlined for the allocation path
        self.header = (context & _MASK_32) << _CONTEXT_SHIFT
        #: back-pointer to the region currently holding this object
        self.region: Optional["Region"] = None
        #: number of times the object has been copied by the GC
        self.copies = 0

    # -- liveness oracle ----------------------------------------------------

    def is_live(self, now_ns: int) -> bool:
        """Ground-truth reachability at virtual time ``now_ns``."""
        return self.death_time_ns > now_ns

    def kill_at(self, death_time_ns: float) -> None:
        """Workload callback: the last reference is dropped at this time."""
        if death_time_ns < self.alloc_time_ns:
            raise ValueError("object cannot die before it is allocated")
        self.death_time_ns = death_time_ns

    # -- header convenience --------------------------------------------------

    @property
    def age(self) -> int:
        return (self.header & _AGE_MASK) >> _AGE_SHIFT

    @property
    def context(self) -> int:
        return (self.header >> _CONTEXT_SHIFT) & _MASK_32

    @property
    def biased_locked(self) -> bool:
        return bool(self.header & _BIASED_MASK)

    def grow_older(self) -> None:
        """Survive one GC cycle (age saturates at :data:`header.MAX_AGE`)."""
        # == hdr.increment_age(self.header), inlined for the copy loops
        header = self.header
        if (header & _AGE_MASK) != _AGE_MASK:
            self.header = header + _AGE_ONE

    def bias_lock(self, thread_pointer: int) -> None:
        """Bias-lock toward a thread, clobbering the profiling context."""
        self.header = hdr.bias_lock(self.header, thread_pointer)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "SimObject(size=%d, ctx=0x%08x, age=%d)" % (
            self.size,
            self.context,
            self.age,
        )
