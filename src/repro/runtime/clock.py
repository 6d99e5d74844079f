"""Deterministic simulated clock.

All time in the simulator is virtual.  The clock advances in two ways:

* mutator progress — executing application operations costs simulated
  nanoseconds (including the profiling-code tax ROLP adds), and
* GC pauses — the collector advances the clock by each stop-the-world
  pause it computes from the copy-cost model.

Keeping both on one clock means throughput, pause percentiles and warmup
timelines are all measured in the same (deterministic, reproducible)
time base — the simulated analogue of the paper's wall-clock runs.
"""

from __future__ import annotations

NS_PER_US = 1_000
NS_PER_MS = 1_000_000
NS_PER_S = 1_000_000_000


class SimClock:
    """A monotonically increasing virtual clock with nanosecond ticks."""

    def __init__(self, start_ns: int = 0) -> None:
        if start_ns < 0:
            raise ValueError("clock cannot start before time zero")
        #: current simulated time.  A plain attribute: the hot paths
        #: advance it in place, and every writer must keep it equal to
        #: ``start_ns + total_mutator_ns + total_pause_ns``.
        self.now_ns = int(start_ns)
        #: cumulative time spent inside stop-the-world pauses
        self.total_pause_ns = 0
        #: cumulative time spent running application (mutator) code
        self.total_mutator_ns = 0

    @property
    def now_ms(self) -> float:
        return self.now_ns / NS_PER_MS

    def advance_mutator(self, ns: float) -> None:
        """Advance the clock by mutator work (truncated to whole ns)."""
        if ns < 0:
            raise ValueError("time cannot move backwards (got %r ns)" % ns)
        ns = int(ns)
        self.now_ns += ns
        self.total_mutator_ns += ns

    def advance_pause(self, ns: float) -> None:
        """Advance the clock by a stop-the-world pause (truncated to whole ns)."""
        if ns < 0:
            raise ValueError("time cannot move backwards (got %r ns)" % ns)
        ns = int(ns)
        self.now_ns += ns
        self.total_pause_ns += ns

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "SimClock(now=%.3f ms, paused=%.3f ms)" % (
            self.now_ms,
            self.total_pause_ns / NS_PER_MS,
        )
