"""HotSpot-style GC log emission and parsing.

Renders a collector's recorded pauses in the shape of OpenJDK's unified
logging (``-Xlog:gc``) so runs can be eyeballed — or diffed — against
real JVM logs, and existing GC-log tooling habits transfer:

    [1.234s][info][gc] GC(42) Pause Young (mixed) 61M->35M(96M) 2.481ms

The parser reads the same format back into structured records, which
also makes the emitter's output a stable machine interface.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import List, Optional

from repro.gc.collector import Collector, PauseEvent


class GcLogParseError(ValueError):
    """A GC log failed strict parsing.

    Carries enough structure for callers (the trace-calibration path,
    tests) to report *which* line was rejected and why, instead of the
    lenient parser's silent skip.
    """

    def __init__(self, reason: str, line_number: int, line: str) -> None:
        super().__init__(
            "%s at line %d: %r" % (reason, line_number, line.strip())
        )
        #: "malformed" or "out-of-order"
        self.reason = reason
        #: 1-based line number in the input text
        self.line_number = line_number
        #: the offending line, verbatim
        self.line = line


#: pause kind -> the HotSpot-ish cause string
_CAUSE = {
    "young": "Pause Young (normal)",
    "mixed": "Pause Young (mixed)",
    "full": "Pause Full (allocation failure)",
    "cms-initial-mark": "Pause Initial Mark",
    "cms-remark": "Pause Remark",
    "cms-full": "Pause Full (CMS compaction)",
    "zgc-mark-start": "Pause Mark Start",
    "zgc-relocate-start": "Pause Relocate Start",
    "zgc-mark-end": "Pause Mark End",
}

#: cause string -> pause kind (inverse of :data:`_CAUSE`)
_KIND_BY_CAUSE = {cause: kind for kind, cause in _CAUSE.items()}

_FALLBACK_CAUSE = re.compile(r"^Pause \((?P<kind>.+)\)$")

_LINE = re.compile(
    r"\[(?P<ts>[0-9.]+)s\]\[info\]\[gc\] GC\((?P<num>\d+)\) "
    r"(?P<cause>.+?) "
    r"(?P<before>\d+)M->(?P<after>\d+)M\((?P<cap>\d+)M\) "
    r"(?P<ms>[0-9.]+)ms$"
)


@dataclass(frozen=True)
class GcLogRecord:
    """One parsed GC log line."""

    timestamp_s: float
    gc_number: int
    cause: str
    heap_before_mb: int
    heap_after_mb: int
    heap_capacity_mb: int
    duration_ms: float


def format_pause(
    pause: PauseEvent,
    heap_capacity_mb: int,
    heap_before_mb: int,
    heap_after_mb: int,
) -> str:
    """Render one pause as a unified-logging line."""
    cause = _CAUSE.get(pause.kind, "Pause (%s)" % pause.kind)
    return "[%0.3fs][info][gc] GC(%d) %s %dM->%dM(%dM) %0.3fms" % (
        pause.start_ns / 1e9,
        pause.gc_number,
        cause,
        heap_before_mb,
        heap_after_mb,
        heap_capacity_mb,
        pause.duration_ms,
    )


def kind_for_cause(cause: str) -> Optional[str]:
    """Recover the pause kind a cause string was formatted from.

    The inverse of :func:`format_pause`'s cause mapping, including the
    ``"Pause (<kind>)"`` fallback used for kinds outside ``_CAUSE``.
    Returns None for strings no pause kind formats to.
    """
    kind = _KIND_BY_CAUSE.get(cause)
    if kind is not None:
        return kind
    match = _FALLBACK_CAUSE.match(cause)
    return match.group("kind") if match else None


def render_log(collector: Collector) -> str:
    """Render a collector's full pause history.

    The per-pause before/after heap figures are approximated from the
    copy accounting (the simulator does not snapshot occupancy at every
    pause; the reclaimed delta is what log readers actually scan for).
    """
    capacity_mb = collector.heap.capacity_bytes >> 20
    current_mb = collector.heap.used_bytes() >> 20
    lines: List[str] = []
    for pause in collector.pauses:
        freed_mb = max(0, pause.bytes_copied >> 20)
        before = min(capacity_mb, current_mb + freed_mb + 1)
        lines.append(format_pause(pause, capacity_mb, before, current_mb))
    return "\n".join(lines)


def parse_line(line: str) -> Optional[GcLogRecord]:
    """Parse one unified-logging line (None when it does not match)."""
    match = _LINE.match(line.strip())
    if not match:
        return None
    return GcLogRecord(
        timestamp_s=float(match.group("ts")),
        gc_number=int(match.group("num")),
        cause=match.group("cause"),
        heap_before_mb=int(match.group("before")),
        heap_after_mb=int(match.group("after")),
        heap_capacity_mb=int(match.group("cap")),
        duration_ms=float(match.group("ms")),
    )


def parse_log(text: str, strict: bool = False) -> List[GcLogRecord]:
    """Parse a full log.

    Lenient mode (the default, unchanged behaviour) skips non-GC lines.
    ``strict=True`` — the mode trace calibration uses — raises
    :class:`GcLogParseError` instead of silently dropping data:

    * ``"malformed"`` for any non-blank line that is not a well-formed
      GC line, and
    * ``"out-of-order"`` when a GC line's timestamp runs backwards
      relative to the previous GC line (real unified logs are
      monotonic; a rewind means truncation or interleaved logs, and a
      demography calibrated from such a log would be silently wrong).
    """
    records: List[GcLogRecord] = []
    last_timestamp = float("-inf")
    for line_number, line in enumerate(text.splitlines(), start=1):
        record = parse_line(line)
        if record is None:
            if strict and line.strip():
                raise GcLogParseError("malformed", line_number, line)
            continue
        if strict and record.timestamp_s < last_timestamp:
            raise GcLogParseError("out-of-order", line_number, line)
        last_timestamp = record.timestamp_s
        records.append(record)
    return records
