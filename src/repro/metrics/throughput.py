"""Throughput accounting.

The paper reports throughput normalized to G1 (Figure 10, middle plot):
ROLP must stay within ~5-6% of G1 while ZGC's barrier tax is much
larger.  Throughput here is completed operations per simulated second,
which directly reflects the mutator-time inflation caused by profiling
code and barrier overheads.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.runtime.clock import NS_PER_S, SimClock


@dataclass
class ThroughputMeter:
    """Counts completed operations against the simulated clock."""

    clock: SimClock
    operations: int = 0

    def record(self, count: int = 1) -> None:
        self.operations += count

    def ops_per_second(self) -> float:
        elapsed_s = self.clock.now_ns / NS_PER_S
        if elapsed_s <= 0:
            return 0.0
        return self.operations / elapsed_s
