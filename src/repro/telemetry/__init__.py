"""Unified telemetry: structured tracing + metrics for every layer.

One :class:`Telemetry` bundle (a tracer and a metrics registry) is
threaded through the VM, the JIT, the collectors, the ROLP profiler and
the conflict resolver.  The default is :data:`NULL_TELEMETRY` — a null
tracer and a no-op registry — so baseline runs record nothing, pay
nothing, and produce bit-identical numbers.

A :class:`TelemetrySession` spans *many* VM runs (one benchmark
invocation): every run gets its own tracer (its own process track in
the exported Chrome trace) while sharing one metrics registry and one
trace sink, so ``rolp-bench fig8 --trace-out trace.json`` shows the
four compared collectors side by side in Perfetto.
"""

from __future__ import annotations

from typing import Optional

from repro.telemetry.flightrec import (
    DEFAULT_CAPACITY as FLIGHT_RECORDER_DEFAULT_CAPACITY,
    FlightRecorder,
    RetentionPolicy,
)
from repro.telemetry.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullMetrics,
    PAUSE_HISTOGRAM_BUCKETS_MS,
)
from repro.telemetry.tracer import (
    NullTracer,
    TeeTracer,
    TraceEvent,
    TraceSink,
    Tracer,
)


class Telemetry:
    """Tracer + metrics bundle wired through one VM run."""

    __slots__ = ("tracer", "metrics", "enabled")

    def __init__(
        self,
        tracer: Optional[NullTracer] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.tracer = tracer if tracer is not None else NullTracer()
        self.metrics = metrics if metrics is not None else NullMetrics()
        #: cached so hot paths pay one attribute read, not two
        self.enabled = bool(self.tracer.enabled or self.metrics.enabled)

    @classmethod
    def for_run(cls, process_name: str = "run") -> "Telemetry":
        """A standalone enabled bundle (single-run convenience)."""
        return cls(TraceSink().tracer(process_name), MetricsRegistry())


#: the zero-cost default every component starts with
NULL_TELEMETRY = Telemetry()


class TelemetrySession:
    """Shared sink + registry across the runs of one bench invocation.

    ``flight_recorder`` (a :class:`FlightRecorder`) adds bounded
    always-on recording alongside — or, with ``record_trace=False``,
    instead of — the unbounded trace sink.
    """

    def __init__(
        self,
        flight_recorder: Optional[FlightRecorder] = None,
        record_trace: bool = True,
    ) -> None:
        self.sink = TraceSink()
        self.metrics = MetricsRegistry()
        self.flight_recorder = flight_recorder
        self.record_trace = record_trace

    def for_run(self, process_name: str = "", trace_id: str = "") -> Telemetry:
        """Telemetry for one VM run: fresh tracer track, shared metrics.

        ``trace_id`` stamps every event the run records, joining the
        trace/flight-recording back to the bench cell that produced it.
        """
        tracers = []
        if self.record_trace:
            tracers.append(self.sink.tracer(process_name, trace_id=trace_id))
        if self.flight_recorder is not None:
            tracers.append(self.flight_recorder.tracer(process_name, trace_id=trace_id))
        if not tracers:
            tracer: NullTracer = NullTracer()
        elif len(tracers) == 1:
            tracer = tracers[0]
        else:
            tracer = TeeTracer(tracers)
        return Telemetry(tracer, self.metrics)

    def scoped(
        self,
        flight_recorder: Optional[FlightRecorder] = None,
        record_trace: bool = False,
    ) -> "TelemetrySession":
        """A child session with its *own* sink and flight recorder but
        the parent's metrics registry.

        This is the fleet server's per-session telemetry scope: each
        server session records lifecycle events (and optional flight
        recordings) into its own bounded ring — dumpable and droppable
        independently — while every counter still lands in the one
        registry ``/metrics`` exports.
        """
        child = TelemetrySession(flight_recorder=flight_recorder, record_trace=record_trace)
        child.metrics = self.metrics
        return child

    def telemetry_counters(self) -> dict:
        """Bookkeeping surfaced under ``--metrics-out``: sink size and
        (when enabled) the flight recorder's bound-proving counters."""
        return {
            "trace_events": self.sink.retained(),
            "flight_recorder": (
                self.flight_recorder.counters() if self.flight_recorder is not None else None
            ),
        }

    def write_trace(self, path: str) -> None:
        self.sink.write_chrome(path)

    def write_prometheus(self, path: str) -> None:
        self.metrics.write_prometheus(path)


__all__ = [
    "Counter",
    "FLIGHT_RECORDER_DEFAULT_CAPACITY",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_TELEMETRY",
    "NullMetrics",
    "NullTracer",
    "PAUSE_HISTOGRAM_BUCKETS_MS",
    "RetentionPolicy",
    "Telemetry",
    "TelemetrySession",
    "TeeTracer",
    "TraceEvent",
    "TraceSink",
    "Tracer",
]
