"""Heap regions.

The simulated heap is region-based, like G1: fixed-size regions that each
belong to one space at a time (eden, survivor, old, humongous, or one of
NG2C's dynamic generations).  A region tracks the objects bump-allocated
into it; the collector queries live/garbage byte counts against the
liveness oracle to choose collection sets and compute copy costs.
"""

from __future__ import annotations

import enum
from typing import List

from repro.heap.object_model import SimObject

#: Default region size (1 MB, G1's default for small heaps).
DEFAULT_REGION_BYTES = 1 << 20


class Space(enum.Enum):
    """The space (logical owner) a region currently belongs to."""

    FREE = "free"
    EDEN = "eden"
    SURVIVOR = "survivor"
    OLD = "old"
    HUMONGOUS = "humongous"
    #: NG2C dynamic generation; the region additionally carries ``gen``.
    DYNAMIC = "dynamic"

    # Members are singletons compared by identity, so identity hashing
    # is consistent with equality; it replaces Enum's Python-level
    # ``__hash__`` on the per-allocation ``(space, gen)`` lookups.
    __hash__ = object.__hash__


class Region:
    """One fixed-size heap region."""

    __slots__ = ("index", "capacity", "space", "gen", "used", "objects")

    def __init__(self, index: int, capacity: int = DEFAULT_REGION_BYTES) -> None:
        self.index = index
        self.capacity = capacity
        self.space = Space.FREE
        #: dynamic-generation number (1..14) when ``space is DYNAMIC``;
        #: 0 for the young gen and 15 for old, mirroring NG2C's numbering.
        self.gen = 0
        self.used = 0
        self.objects: List[SimObject] = []

    # -- allocation -----------------------------------------------------------

    def allocate(self, obj: SimObject) -> None:
        """Bump-allocate ``obj`` into this region."""
        size = obj.size
        if self.used + size > self.capacity:
            raise MemoryError(
                "region %d: %d bytes requested, %d free"
                % (self.index, size, self.capacity - self.used)
            )
        self.objects.append(obj)
        obj.region = self
        self.used += size

    # -- accounting -----------------------------------------------------------

    def live_bytes(self, now_ns: int) -> int:
        """Bytes occupied by objects still reachable at ``now_ns``."""
        return sum(o.size for o in self.objects if o.is_live(now_ns))

    def garbage_bytes(self, now_ns: int) -> int:
        """Bytes occupied by dead objects (reclaimable by evacuation)."""
        return self.used - self.live_bytes(now_ns)

    def occupancy(self) -> float:
        """Fraction of the region's capacity that has been allocated."""
        return self.used / self.capacity if self.capacity else 0.0

    def fragmentation(self, now_ns: int) -> float:
        """Fraction of *allocated* bytes that are garbage.

        A fully live or fully dead region has no fragmentation cost: it
        is either kept or reclaimed wholesale.  Mixed regions are the
        expensive ones — their live objects must be copied out.
        """
        if self.used == 0:
            return 0.0
        return self.garbage_bytes(now_ns) / self.used

    # -- lifecycle -------------------------------------------------------------

    def reset(self) -> None:
        """Return the region to the free list (contents reclaimed)."""
        for obj in self.objects:
            obj.region = None
        self.objects.clear()
        self.used = 0
        self.space = Space.FREE
        self.gen = 0

    def retarget(self, space: Space, gen: int = 0) -> None:
        """Claim a free region for a space (optionally a dynamic gen)."""
        if self.space is not Space.FREE:
            raise ValueError(
                "region %d is %s, not free" % (self.index, self.space.value)
            )
        self.space = space
        self.gen = gen

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "Region(%d, %s%s, %d/%d)" % (
            self.index,
            self.space.value,
            ":%d" % self.gen if self.space is Space.DYNAMIC else "",
            self.used,
            self.capacity,
        )
