"""Structured event tracing on the simulated clock.

Every interesting runtime moment — a JIT compile, an OSR, each GC
pause, an OLD-table merge, a conflict-resolution step, a biased-lock
revocation — can be recorded with the simulated-nanosecond timestamp at
which it happened.  One recording :class:`Tracer` per VM run encodes
each event once, as a compact tuple, and hands it to its store: the
unbounded :class:`TraceSink` behind ``--trace-out`` or the bounded
:class:`~repro.telemetry.flightrec.FlightRecorder`.  Both stores build
:class:`TraceEvent` objects only for ``events()`` and for export, in
two formats:

* **JSONL** — one event object per line, trivially greppable/diffable;
* **Chrome ``trace_event``** — a ``{"traceEvents": [...]}`` document
  that opens directly in ``chrome://tracing`` or https://ui.perfetto.dev,
  with one *process* track per VM run so multi-run benchmark traces
  (e.g. the four collectors of Figure 8) sit side by side.

The default is a :class:`NullTracer`, whose methods are no-ops and
whose ``enabled`` flag lets hot paths skip building event arguments
entirely — baseline runs pay nothing and produce bit-identical numbers.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional

#: event phases (the Chrome trace_event vocabulary subset we emit)
PHASE_SPAN = "X"     # complete event: ts + dur
PHASE_INSTANT = "i"  # instant event: ts only

# compact tuple layout every store keeps (index -> field); args keep
# their call order
_SEQ, _PHASE, _NAME, _TS, _DUR, _PID, _TID, _CAT, _TRACE, _SPAN, _ARGS = range(11)


@dataclass
class TraceEvent:
    """One recorded event, timestamped on the simulated clock."""

    name: str
    phase: str
    ts_ns: int
    dur_ns: float = 0.0
    pid: int = 0
    tid: int = 0
    category: str = ""
    args: Dict[str, object] = field(default_factory=dict)
    #: fleet identity: the cell trace id this event belongs to ("" when
    #: the run is not part of a bench grid) and an optional per-event
    #: span id (e.g. ``gc-12/young``) joinable from pause reports
    trace_id: str = ""
    span_id: str = ""

    def to_chrome(self) -> Dict[str, object]:
        """This event as a Chrome ``trace_event`` dict (ts/dur in µs)."""
        args = dict(self.args)
        # Chrome's viewer surfaces args per slice; the ids ride there so
        # documents without them stay byte-for-byte what they were.
        if self.trace_id:
            args["trace_id"] = self.trace_id
        if self.span_id:
            args["span_id"] = self.span_id
        event: Dict[str, object] = {
            "name": self.name,
            "ph": self.phase,
            "ts": self.ts_ns / 1e3,
            "pid": self.pid,
            "tid": self.tid,
            "cat": self.category or "repro",
            "args": args,
        }
        if self.phase == PHASE_SPAN:
            event["dur"] = self.dur_ns / 1e3
        elif self.phase == PHASE_INSTANT:
            event["s"] = "p"  # process-scoped instant marker
        return event

    def to_jsonl(self) -> Dict[str, object]:
        """This event as a flat dict for JSONL output (times in ns)."""
        return {
            "name": self.name,
            "phase": self.phase,
            "ts_ns": self.ts_ns,
            "dur_ns": self.dur_ns,
            "pid": self.pid,
            "tid": self.tid,
            "category": self.category,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "args": dict(self.args),
        }


class NullTracer:
    """Does nothing; costs nothing.  The default on every VM."""

    enabled = False
    #: whether this tracer wants the *hot* event stream (per-allocation
    #: and per-call instants).  Only bounded consumers — the flight
    #: recorder's sampling ring — opt in; the unbounded TraceSink never
    #: does, so ``--trace-out`` files stay proportional to GC activity.
    wants_hot_events = False

    def bind_clock(self, clock) -> None:
        """Attach the simulated clock used for implicit timestamps."""

    def hot_instant(
        self,
        name: str,
        ts_ns: Optional[int] = None,
        category: str = "",
        tid: int = 0,
        **args,
    ) -> None:
        """High-frequency instant (alloc/call streams).  Dropped unless
        the tracer opted in via :attr:`wants_hot_events`."""

    def instant(
        self,
        name: str,
        ts_ns: Optional[int] = None,
        category: str = "",
        tid: int = 0,
        **args,
    ) -> None:
        """Record a point-in-time event."""

    def span(
        self,
        name: str,
        start_ns: int,
        duration_ns: float,
        category: str = "",
        tid: int = 0,
        **args,
    ) -> None:
        """Record an event with a duration (e.g. a GC pause)."""


class EventStore:
    """What the two recording stores share.

    A store hands out one :class:`Tracer` per VM run (its own process id
    in the exported trace), numbers the encoded events it receives, and
    exports them.  Subclasses decide what to keep (:meth:`record`,
    :meth:`record_hot`) and in which order to export it
    (:meth:`_export_order`).
    """

    #: whether this store's tracers take the hot alloc/call stream
    wants_hot_events = False

    def __init__(self) -> None:
        self.process_names: Dict[int, str] = {}
        self._next_pid = 1
        self._next_seq = 0

    def tracer(self, process_name: str = "", clock=None, trace_id: str = "") -> "Tracer":
        """A new tracer recording into this store under a fresh pid."""
        pid = self._next_pid
        self._next_pid += 1
        self.process_names[pid] = process_name or ("run-%d" % pid)
        return Tracer(self, pid=pid, clock=clock, trace_id=trace_id)

    def record(self, encoded: tuple, category: str) -> None:
        raise NotImplementedError

    def record_hot(self, encoded: tuple) -> None:
        """The high-frequency alloc/call channel; dropped by default."""

    def retained(self) -> int:
        raise NotImplementedError

    def _export_order(self) -> List[tuple]:
        """The retained encoded events, in the order they export."""
        raise NotImplementedError

    @staticmethod
    def _time_ordered(encoded: List[tuple]) -> List[tuple]:
        """``encoded`` sorted by timestamp, ties in recording order."""
        return sorted(encoded, key=lambda e: (e[_TS], e[_SEQ]))

    # -- exporters ----------------------------------------------------------

    def events(self) -> List[TraceEvent]:
        """The retained events materialised as :class:`TraceEvent`."""
        return [
            TraceEvent(
                name=e[_NAME],
                phase=e[_PHASE],
                ts_ns=e[_TS],
                dur_ns=e[_DUR],
                pid=e[_PID],
                tid=e[_TID],
                category=e[_CAT],
                args=dict(e[_ARGS]),
                trace_id=e[_TRACE],
                span_id=e[_SPAN],
            )
            for e in self._export_order()
        ]

    def to_chrome(self) -> Dict[str, object]:
        """The full trace as a Chrome ``trace_event`` document."""
        metadata = [
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {"name": name},
            }
            for pid, name in sorted(self.process_names.items())
        ]
        return {
            "traceEvents": metadata + [e.to_chrome() for e in self.events()],
            "displayTimeUnit": "ms",
        }

    def to_jsonl(self) -> str:
        return "\n".join(json.dumps(e.to_jsonl(), sort_keys=True) for e in self.events())

    def write_chrome(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump(self.to_chrome(), handle)

    def write_jsonl(self, path: str) -> None:
        with open(path, "w") as handle:
            text = self.to_jsonl()
            if text:
                handle.write(text + "\n")


class TraceSink(EventStore):
    """Unbounded event store for one trace file (``--trace-out``).

    Keeps every event it is handed, in arrival order, and never takes
    the hot alloc/call stream.
    """

    def __init__(self) -> None:
        super().__init__()
        self._encoded: List[tuple] = []

    def record(self, encoded: tuple, category: str) -> None:
        self._encoded.append(encoded)

    def retained(self) -> int:
        return len(self._encoded)

    def _export_order(self) -> List[tuple]:
        return self._encoded


class Tracer(NullTracer):
    """Records events into an :class:`EventStore`.

    Timestamps come from the explicit ``ts_ns``/``start_ns`` argument
    when the caller knows the event time (pause records), otherwise from
    the bound simulated clock (instants fired mid-mutator).  A
    ``span_id`` keyword moves out of the args into its own field.
    """

    enabled = True

    def __init__(
        self,
        store: Optional[EventStore] = None,
        pid: int = 1,
        clock=None,
        trace_id: str = "",
    ) -> None:
        if store is None:
            store = TraceSink()
            store.process_names[pid] = "main"
            store._next_pid = pid + 1
        self.store = store
        self.wants_hot_events = store.wants_hot_events
        self.pid = pid
        self.trace_id = trace_id
        self._clock = clock

    def events(self) -> List[TraceEvent]:
        return self.store.events()

    def bind_clock(self, clock) -> None:
        """First clock wins: one tracer belongs to one VM run."""
        if self._clock is None:
            self._clock = clock

    def _now(self, ts_ns: Optional[int]) -> int:
        if ts_ns is not None:
            return int(ts_ns)
        return self._clock.now_ns if self._clock is not None else 0

    def _encode(self, phase, name, ts_ns, dur_ns, tid, category, args) -> tuple:
        span_id = str(args.pop("span_id", ""))
        store = self.store
        seq = store._next_seq
        store._next_seq = seq + 1
        return (
            seq,
            phase,
            name,
            ts_ns,
            dur_ns,
            self.pid,
            tid,
            category,
            self.trace_id,
            span_id,
            args,
        )

    def hot_instant(self, name, ts_ns=None, category="", tid=0, **args) -> None:
        self.store.record_hot(
            self._encode(PHASE_INSTANT, name, self._now(ts_ns), 0.0, tid, category, args)
        )

    def instant(self, name, ts_ns=None, category="", tid=0, **args) -> None:
        self.store.record(
            self._encode(PHASE_INSTANT, name, self._now(ts_ns), 0.0, tid, category, args),
            category,
        )

    def span(self, name, start_ns, duration_ns, category="", tid=0, **args) -> None:
        self.store.record(
            self._encode(PHASE_SPAN, name, int(start_ns), float(duration_ns), tid, category, args),
            category,
        )


class TeeTracer(NullTracer):
    """Fans one event stream out to several tracers.

    Used when a run records into both the trace sink (``--trace-out``)
    and the flight recorder: components bind one tracer, and the tee
    forwards.  ``wants_hot_events`` is the OR of the children, so the
    hot alloc/call stream is built only when some child keeps it.
    """

    enabled = True

    def __init__(self, children) -> None:
        self.children = list(children)
        self.wants_hot_events = any(
            getattr(child, "wants_hot_events", False) for child in self.children
        )

    def bind_clock(self, clock) -> None:
        for child in self.children:
            child.bind_clock(clock)

    def hot_instant(self, name, ts_ns=None, category="", tid=0, **args) -> None:
        for child in self.children:
            if getattr(child, "wants_hot_events", False):
                child.hot_instant(name, ts_ns=ts_ns, category=category, tid=tid, **args)

    def instant(self, name, ts_ns=None, category="", tid=0, **args) -> None:
        for child in self.children:
            child.instant(name, ts_ns=ts_ns, category=category, tid=tid, **args)

    def span(self, name, start_ns, duration_ns, category="", tid=0, **args) -> None:
        for child in self.children:
            child.span(name, start_ns, duration_ns, category=category, tid=tid, **args)
