"""Always-on flight recorder: a bounded ring of recent runtime events.

The ``--trace-out`` sink keeps every event it sees, which is perfect
for short diagnostic runs and hopeless for always-on use — a fig6-scale
grid emits millions of alloc/call instants.  The flight recorder is the
JFR-style answer the ROLP/NG2C papers assume from HotSpot: recording is
*continuous* but memory is *fixed*, so the recorder can stay enabled in
production-shaped runs and be dumped on demand (``--flight-out``) or on
an invariant violation (the PR 3 verifier tripping).

Two retention classes, two rings:

* **critical** events (GC pauses, safepoints, JIT compiles, deopts,
  ROLP profiler maintenance, verifier findings) are always kept; when
  the critical ring fills, the *oldest* critical events fall off.
* **hot** events (per-allocation / per-call instants, delivered via the
  :meth:`~repro.telemetry.tracer.NullTracer.hot_instant` channel) are
  deterministically sampled 1-in-``sample_every`` before entering the
  smaller sampled ring.

The recorder is an :class:`~repro.telemetry.tracer.EventStore`: its
per-run tracers are the same :class:`~repro.telemetry.tracer.Tracer`
the trace sink hands out, the rings hold the compact tuples that tracer
encodes, and events are materialised only at dump time.  Everything is
counted: ``events_seen``, ``events_sampled_out``, ``events_evicted``
and the retained totals let tests (and the CI ``explain-smoke`` job)
assert the memory bound instead of trusting it.

Enable via ``--flight-recorder[=N]`` on ``rolp-bench``.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Tuple

from .tracer import EventStore

#: total event slots (critical + sampled rings) when none is specified
DEFAULT_CAPACITY = 65536

#: rough per-slot cost of one encoded tuple event (python object
#: overhead dominates); used for the ``memory_bytes_estimate`` counter
EVENT_ESTIMATE_BYTES = 200


@dataclass(frozen=True)
class RetentionPolicy:
    """What the recorder keeps versus samples.

    ``keep_categories`` ride the critical ring un-sampled; everything
    arriving on the hot channel is decimated 1-in-``sample_every`` by a
    plain counter (no RNG — recording must never perturb simulation
    determinism).  ``critical_fraction`` splits the total capacity
    between the two rings.
    """

    keep_categories: frozenset = frozenset(
        {"gc", "safepoint", "jit", "deopt", "rolp", "verify", "lock"}
    )
    sample_every: int = 8
    critical_fraction: float = 0.75

    def split(self, capacity: int) -> Tuple[int, int]:
        """(critical slots, sampled slots) for a total ``capacity``."""
        critical = max(1, int(capacity * self.critical_fraction))
        critical = min(critical, capacity - 1) if capacity > 1 else capacity
        return critical, max(0, capacity - critical)


DEFAULT_POLICY = RetentionPolicy()


class FlightRecorder(EventStore):
    """Bounded always-on event recorder shared by the runs of one session."""

    wants_hot_events = True

    def __init__(
        self,
        capacity: int = DEFAULT_CAPACITY,
        policy: RetentionPolicy = DEFAULT_POLICY,
    ) -> None:
        if capacity <= 0:
            raise ValueError("flight recorder capacity must be positive (got %r)" % capacity)
        super().__init__()
        self.capacity = capacity
        self.policy = policy
        critical_slots, sampled_slots = policy.split(capacity)
        # overwrite-oldest rings of encoded events
        self._critical: Deque[tuple] = deque(maxlen=critical_slots)
        self._sampled: Deque[tuple] = deque(maxlen=sampled_slots)
        self.events_seen = 0
        self.events_sampled_out = 0
        self.events_evicted = 0
        self._hot_counter = 0

    # -- recording ----------------------------------------------------------

    def record(self, encoded: tuple, category: str) -> None:
        """Route one encoded event by its category's retention class."""
        self.events_seen += 1
        if category in self.policy.keep_categories:
            self._keep(self._critical, encoded)
        else:
            self._record_sampled(encoded)

    def record_hot(self, encoded: tuple) -> None:
        """The high-frequency alloc/call channel: always sampled."""
        self.events_seen += 1
        self._record_sampled(encoded)

    def _record_sampled(self, encoded: tuple) -> None:
        self._hot_counter += 1
        if self.policy.sample_every > 1 and self._hot_counter % self.policy.sample_every:
            self.events_sampled_out += 1
            return
        self._keep(self._sampled, encoded)

    def _keep(self, ring: Deque[tuple], encoded: tuple) -> None:
        # a full ring evicts its oldest event for this one (a ring with
        # no slots evicts this one)
        if len(ring) == ring.maxlen:
            self.events_evicted += 1
        ring.append(encoded)

    # -- accounting ---------------------------------------------------------

    def retained(self) -> int:
        return len(self._critical) + len(self._sampled)

    def counters(self) -> Dict[str, int]:
        """Bound-proving counters, exported under ``--metrics-out``."""
        retained = self.retained()
        return {
            "capacity": self.capacity,
            "retained": retained,
            "retained_critical": len(self._critical),
            "retained_sampled": len(self._sampled),
            "events_seen": self.events_seen,
            "events_sampled_out": self.events_sampled_out,
            "events_evicted": self.events_evicted,
            "memory_bytes_estimate": retained * EVENT_ESTIMATE_BYTES,
        }

    # -- dumping ------------------------------------------------------------

    def _export_order(self) -> List[tuple]:
        """Both rings merged into time order."""
        return self._time_ordered(list(self._critical) + list(self._sampled))

    def dump(self, path: str) -> None:
        """Dump-on-demand / dump-on-violation entry point (JSONL plus a
        trailing counters line, so a dump is self-describing)."""
        self.write_jsonl(path)
        with open(path, "a") as handle:
            handle.write(json.dumps({"flight_recorder": self.counters()}, sort_keys=True) + "\n")
