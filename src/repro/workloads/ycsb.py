"""YCSB-style workload generation.

The paper drives Cassandra with YCSB at three read/write mixes
(write-intensive 75% writes, read-write 50%, read-intensive 25%).  This
module reimplements the relevant YCSB machinery: the zipfian request
distribution (with the standard zeta normalization and scrambling), a
uniform distribution, and an operation-mix chooser — all deterministic
under a seed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Iterator

#: YCSB's default zipfian skew
ZIPFIAN_CONSTANT = 0.99
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK_64 = (1 << 64) - 1


def _fnv1a_64(value: int) -> int:
    """FNV-1a hash of an integer (YCSB's key scrambler): the octets of
    its low 64 bits, two's complement, least significant first."""
    hashed = _FNV_OFFSET
    for octet in (value & _MASK_64).to_bytes(8, "little"):
        hashed = ((hashed ^ octet) * _FNV_PRIME) & _MASK_64
    return hashed


class ZipfianGenerator:
    """Zipfian-distributed integers in ``[0, item_count)``.

    Port of YCSB's ``ZipfianGenerator`` (Gray et al.'s rejection-free
    algorithm) with a fixed item count.
    """

    def __init__(
        self,
        item_count: int,
        theta: float = ZIPFIAN_CONSTANT,
        seed: int = 7,
    ) -> None:
        if item_count <= 0:
            raise ValueError("item_count must be positive")
        self.item_count = item_count
        self.theta = theta
        self._rng = random.Random(seed)
        self._zeta_n = self._zeta(item_count, theta)
        self._zeta2 = self._zeta(2, theta)
        self._alpha = 1.0 / (1.0 - theta)
        self._eta = (1 - (2.0 / item_count) ** (1 - theta)) / (
            1 - self._zeta2 / self._zeta_n
        )

    @staticmethod
    def _zeta(n: int, theta: float) -> float:
        return sum(1.0 / (i ** theta) for i in range(1, n + 1))

    def next(self) -> int:
        u = self._rng.random()
        uz = u * self._zeta_n
        if uz < 1.0:
            return 0
        if uz < 1.0 + 0.5 ** self.theta:
            return 1
        return int(
            self.item_count * ((self._eta * u - self._eta + 1) ** self._alpha)
        )

    def __iter__(self) -> Iterator[int]:
        while True:
            yield self.next()


class ScrambledZipfianGenerator:
    """Zipfian popularity spread over the whole keyspace (YCSB default):
    hot items are hashed across the key range instead of clustering at
    the low keys."""

    def __init__(self, item_count: int, seed: int = 7) -> None:
        self.item_count = item_count
        self._zipf = ZipfianGenerator(item_count, seed=seed)

    def next(self) -> int:
        return _fnv1a_64(self._zipf.next()) % self.item_count


class UniformGenerator:
    """Uniform integers in ``[0, item_count)``."""

    def __init__(self, item_count: int, seed: int = 7) -> None:
        if item_count <= 0:
            raise ValueError("item_count must be positive")
        self.item_count = item_count
        self._rng = random.Random(seed)

    def next(self) -> int:
        return self._rng.randrange(self.item_count)


@dataclass(frozen=True)
class OperationMix:
    """Fractions of each YCSB operation type (must sum to 1)."""

    read: float = 0.0
    update: float = 0.0
    insert: float = 0.0
    scan: float = 0.0

    def __post_init__(self) -> None:
        total = self.read + self.update + self.insert + self.scan
        if not math.isclose(total, 1.0, rel_tol=1e-9):
            raise ValueError("operation mix must sum to 1 (got %r)" % total)

    @property
    def write_fraction(self) -> float:
        return self.update + self.insert


#: the paper's three Cassandra mixes (Table 1)
MIX_WRITE_INTENSIVE = OperationMix(read=0.25, update=0.55, insert=0.20)
MIX_READ_WRITE = OperationMix(read=0.50, update=0.35, insert=0.15)
MIX_READ_INTENSIVE = OperationMix(read=0.75, update=0.17, insert=0.08)


class OperationChooser:
    """Draws operation types according to an :class:`OperationMix`."""

    OPS = ("read", "update", "insert", "scan")

    def __init__(self, mix: OperationMix, seed: int = 11) -> None:
        self.mix = mix
        self._rng = random.Random(seed)
        self._cumulative = []
        running = 0.0
        for op in self.OPS:
            running += getattr(mix, op)
            self._cumulative.append((running, op))

    def next(self) -> str:
        draw = self._rng.random()
        for threshold, op in self._cumulative:
            if draw <= threshold:
                return op
        return self._cumulative[-1][1]


@dataclass(frozen=True)
class RecordSpec:
    """YCSB record shape: N fields of M bytes (default 10 x 100 = 1 KB)."""

    field_count: int = 10
    field_bytes: int = 100

    @property
    def record_bytes(self) -> int:
        return self.field_count * self.field_bytes
