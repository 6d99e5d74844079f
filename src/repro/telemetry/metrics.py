"""Metrics registry: counters, gauges and histograms with labels.

The registry is the numeric side of the telemetry layer: cheap
instruments the runtime increments as it goes (allocations by site,
bytes copied per collector, the pause-time histogram, instrumented
method counts, lost OLD-table increments), exported as either
Prometheus text exposition format or a plain JSON document.

Instrument handles are cached by the instrumented components at
telemetry-bind time, so the hot-path cost is one method call — and with
the :class:`NullMetrics` default that call is a no-op.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Sequence, Tuple

#: default buckets for the GC pause-time histogram, mirroring Figure 9's
#: duration intervals (upper edges in ms; the last bucket is open)
PAUSE_HISTOGRAM_BUCKETS_MS = (1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0)

_LabelKey = Tuple[Tuple[str, str], ...]


def _key(labels: Dict[str, object]) -> _LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _render_labels(key: _LabelKey) -> str:
    if not key:
        return ""
    return "{%s}" % ",".join('%s="%s"' % (k, v) for k, v in key)


class Counter:
    """Monotonically increasing value, optionally split by labels."""

    kind = "counter"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self._values: Dict[_LabelKey, float] = {}

    def inc(self, amount: float = 1.0, **labels) -> None:
        if amount < 0:
            raise ValueError("counters only go up (got %r)" % amount)
        key = _key(labels)
        self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels) -> float:
        return self._values.get(_key(labels), 0.0)

    def total(self) -> float:
        """Sum across every label combination."""
        return sum(self._values.values())

    def samples(self) -> Iterator[Tuple[_LabelKey, float]]:
        for key in sorted(self._values):
            yield key, self._values[key]

    def to_json(self) -> List[Dict[str, object]]:
        return [
            {"labels": dict(key), "value": value} for key, value in self.samples()
        ]

    def to_prometheus(self) -> List[str]:
        return [
            "%s%s %s" % (self.name, _render_labels(key), _format(value))
            for key, value in self.samples()
        ]


class Gauge(Counter):
    """A value that can go up and down (instantaneous state)."""

    kind = "gauge"

    def set(self, value: float, **labels) -> None:
        self._values[_key(labels)] = float(value)

    def inc(self, amount: float = 1.0, **labels) -> None:
        key = _key(labels)
        self._values[key] = self._values.get(key, 0.0) + amount


class Histogram:
    """Cumulative-bucket histogram (Prometheus semantics: ``le`` edges)."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        buckets: Sequence[float] = PAUSE_HISTOGRAM_BUCKETS_MS,
        help: str = "",
    ) -> None:
        edges = [float(b) for b in buckets]
        if not edges or edges != sorted(edges):
            raise ValueError("histogram buckets must be ascending and non-empty")
        self.name = name
        self.help = help
        self.buckets = tuple(edges)
        #: per-labelset: one count per bucket plus the overflow bucket
        self._counts: Dict[_LabelKey, List[int]] = {}
        self._sums: Dict[_LabelKey, float] = {}

    def observe(self, value: float, **labels) -> None:
        key = _key(labels)
        counts = self._counts.get(key)
        if counts is None:
            counts = [0] * (len(self.buckets) + 1)
            self._counts[key] = counts
            self._sums[key] = 0.0
        for i, edge in enumerate(self.buckets):
            if value <= edge:
                counts[i] += 1
                break
        else:
            counts[-1] += 1
        self._sums[key] += value

    def counts(self, **labels) -> List[int]:
        """Per-bucket (non-cumulative) counts, overflow last."""
        return list(self._counts.get(_key(labels), [0] * (len(self.buckets) + 1)))

    def sum(self, **labels) -> float:
        return self._sums.get(_key(labels), 0.0)

    def count(self, **labels) -> int:
        return sum(self._counts.get(_key(labels), ()))

    def percentile(self, q: float, **labels) -> float:
        """Estimate the ``q``-th percentile (0–100) for one label set.

        Linear interpolation within the containing bucket, taking the
        previous bucket edge (or 0) as the lower bound.  Values that
        landed in the open overflow bucket are clamped to the last
        finite edge — the histogram cannot resolve beyond it.
        """
        if not 0.0 <= q <= 100.0:
            raise ValueError("percentile must be in [0, 100] (got %r)" % q)
        counts = self._counts.get(_key(labels))
        if counts is None:
            return 0.0
        total = sum(counts)
        if total == 0:
            return 0.0
        rank = q / 100.0 * total
        cumulative = 0
        lower = 0.0
        for edge, count in zip(self.buckets, counts):
            if cumulative + count >= rank and count > 0:
                fraction = (rank - cumulative) / count
                return lower + (edge - lower) * max(0.0, min(1.0, fraction))
            cumulative += count
            lower = edge
        return self.buckets[-1]

    def samples(self) -> Iterator[Tuple[_LabelKey, List[int], float]]:
        for key in sorted(self._counts):
            yield key, self._counts[key], self._sums[key]

    def to_json(self) -> List[Dict[str, object]]:
        return [
            {
                "labels": dict(key),
                "buckets": list(self.buckets),
                "counts": list(counts),
                "sum": total,
                "count": sum(counts),
            }
            for key, counts, total in self.samples()
        ]

    def to_prometheus(self) -> List[str]:
        lines: List[str] = []
        for key, counts, total in self.samples():
            cumulative = 0
            for edge, count in zip(self.buckets, counts):
                cumulative += count
                bucket_key = key + (("le", "%g" % edge),)
                lines.append(
                    "%s_bucket%s %d" % (self.name, _render_labels(bucket_key), cumulative)
                )
            cumulative += counts[-1]
            inf_key = key + (("le", "+Inf"),)
            lines.append(
                "%s_bucket%s %d" % (self.name, _render_labels(inf_key), cumulative)
            )
            lines.append("%s_sum%s %s" % (self.name, _render_labels(key), _format(total)))
            lines.append("%s_count%s %d" % (self.name, _render_labels(key), cumulative))
        return lines


def _format(value: float) -> str:
    if float(value).is_integer():
        return "%d" % int(value)
    return repr(float(value))


class MetricsRegistry:
    """Get-or-create home for every instrument in one telemetry session."""

    enabled = True

    def __init__(self) -> None:
        self._instruments: Dict[str, object] = {}

    def _get(self, name: str, kind: str, factory):
        instrument = self._instruments.get(name)
        if instrument is None:
            instrument = factory()
            self._instruments[name] = instrument
        elif instrument.kind != kind:
            raise TypeError(
                "metric %r already registered as a %s" % (name, instrument.kind)
            )
        return instrument

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get(name, "counter", lambda: Counter(name, help))

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get(name, "gauge", lambda: Gauge(name, help))

    def histogram(
        self,
        name: str,
        buckets: Sequence[float] = PAUSE_HISTOGRAM_BUCKETS_MS,
        help: str = "",
    ) -> Histogram:
        return self._get(name, "histogram", lambda: Histogram(name, buckets, help))

    def instruments(self) -> List[object]:
        return [self._instruments[name] for name in sorted(self._instruments)]

    # -- exporters ----------------------------------------------------------

    def to_json(self) -> Dict[str, object]:
        return {
            instrument.name: {
                "type": instrument.kind,
                "help": instrument.help,
                "samples": instrument.to_json(),
            }
            for instrument in self.instruments()
        }

    def to_prometheus(self) -> str:
        # Ordering contract: instruments sort by name and samples sort by
        # rendered label key, so the exposition text is byte-stable across
        # runs regardless of increment order — diffable in CI artifacts.
        lines: List[str] = []
        for instrument in self.instruments():
            if instrument.help:
                lines.append("# HELP %s %s" % (instrument.name, instrument.help))
            lines.append("# TYPE %s %s" % (instrument.name, instrument.kind))
            lines.extend(instrument.to_prometheus())
        return "\n".join(lines) + ("\n" if lines else "")

    def write_prometheus(self, path: str) -> None:
        with open(path, "w") as handle:
            handle.write(self.to_prometheus())


class _NullInstrument:
    """Accepts every instrument operation and records nothing."""

    def inc(self, amount: float = 1.0, **labels) -> None:
        pass

    def set(self, value: float, **labels) -> None:
        pass

    def observe(self, value: float, **labels) -> None:
        pass


_NULL_INSTRUMENT = _NullInstrument()


class NullMetrics(MetricsRegistry):
    """Registry whose instruments are shared no-ops (the default)."""

    enabled = False

    def counter(self, name: str, help: str = "") -> _NullInstrument:  # type: ignore[override]
        return _NULL_INSTRUMENT

    def gauge(self, name: str, help: str = "") -> _NullInstrument:  # type: ignore[override]
        return _NULL_INSTRUMENT

    def histogram(self, name, buckets=PAUSE_HISTOGRAM_BUCKETS_MS, help=""):  # type: ignore[override]
        return _NULL_INSTRUMENT

    def to_json(self) -> Dict[str, object]:
        return {}
