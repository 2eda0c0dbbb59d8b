"""The metrics registry: counters, gauges and fixed-bucket histograms.

One :class:`MetricsRegistry` is a process-local (or search-local) collection
of named instruments.  Three design rules keep it compatible with the engine's
determinism contract:

* **Fixed bucket boundaries.**  A histogram's buckets are chosen at creation
  and never adapt to the data, so merging two histograms is exact bucket-wise
  integer addition — a histogram merged from a checkpoint's snapshot is
  *byte-identical* to one recorded in a single registry, not approximately
  equal.
* **Deterministic vs. volatile metrics.**  Wall-clock observations (and
  counters that depend on per-process state, e.g. compile-cache warmth) are
  created with ``timing=True`` and excluded from
  :meth:`RegistrySnapshot.deterministic`; everything else must be a pure
  function of the committed work, so deterministic snapshots compare equal
  across a checkpoint and resume.
* **Plain picklable snapshots.**  :class:`RegistrySnapshot` carries nothing
  but dicts, tuples and numbers; it rides in search checkpoints and crosses
  the process boundary from a supervised search worker to the service.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

__all__ = [
    "COUNT_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "RegistrySnapshot",
    "SECONDS_BUCKETS",
    "SpanRecord",
]


#: Default boundaries for wall-clock histograms (seconds).  Upper-inclusive;
#: one overflow bucket catches everything beyond the last boundary.
SECONDS_BUCKETS: Tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0,
)

#: Default boundaries for integer-count histograms (solver nodes, consumed
#: bits, constraint-set sizes...).
COUNT_BUCKETS: Tuple[float, ...] = (
    0, 1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000, 50000,
)


class Counter:
    """A monotonically increasing named count."""

    __slots__ = ("name", "timing", "value")

    def __init__(self, name: str, timing: bool = False) -> None:
        self.name = name
        self.timing = timing
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount


class Gauge:
    """A named last-written value (queue depths, pool sizes)."""

    __slots__ = ("name", "timing", "value")

    def __init__(self, name: str, timing: bool = False) -> None:
        self.name = name
        self.timing = timing
        self.value = 0

    def set(self, value) -> None:
        self.value = value


class Histogram:
    """Fixed-boundary histogram; merges are exact bucket-wise addition.

    ``buckets`` are upper-inclusive boundaries; observations beyond the last
    boundary land in the overflow bucket, so ``counts`` has
    ``len(buckets) + 1`` cells.  Deterministic histograms should observe
    integers only (integer sums merge exactly in any order); wall-clock
    histograms must be created with ``timing=True``.
    """

    __slots__ = ("name", "timing", "buckets", "counts", "count", "sum")

    def __init__(self, name: str, buckets: Tuple[float, ...],
                 timing: bool = False) -> None:
        if not buckets or list(buckets) != sorted(buckets):
            raise ValueError(f"histogram {name!r} needs sorted, non-empty "
                             f"bucket boundaries, got {buckets!r}")
        self.name = name
        self.timing = timing
        self.buckets = tuple(buckets)
        self.counts = [0] * (len(buckets) + 1)
        self.count = 0
        self.sum = 0

    def observe(self, value) -> None:
        index = 0
        for boundary in self.buckets:
            if value <= boundary:
                break
            index += 1
        self.counts[index] += 1
        self.count += 1
        self.sum += value


@dataclass
class SpanRecord:
    """One completed span of the timeline (always volatile/timing data)."""

    name: str
    depth: int
    start: float
    seconds: float
    attrs: Tuple[Tuple[str, object], ...] = ()

    def to_json(self) -> Dict[str, object]:
        return {"name": self.name, "depth": self.depth,
                "start": round(self.start, 6),
                "seconds": round(self.seconds, 6),
                "attrs": dict(self.attrs)}


@dataclass
class RegistrySnapshot:
    """A picklable point-in-time copy of a registry.

    ``histograms`` maps name -> ``(buckets, counts, count, sum)``;
    ``timing_names`` lists the metrics excluded from deterministic
    comparison.  :meth:`MetricsRegistry.merge_snapshot` folds a snapshot
    into a live registry; that requires identical bucket boundaries per
    name — guaranteed because boundaries are fixed at creation.
    """

    counters: Dict[str, int] = field(default_factory=dict)
    gauges: Dict[str, object] = field(default_factory=dict)
    histograms: Dict[str, Tuple[Tuple[float, ...], Tuple[int, ...], int, object]] = \
        field(default_factory=dict)
    timing_names: Tuple[str, ...] = ()
    spans: Tuple[SpanRecord, ...] = ()

    def deterministic(self) -> "RegistrySnapshot":
        """The snapshot minus every timing/volatile metric and all spans.

        This is the subset the determinism tests compare byte-for-byte
        between an uninterrupted search and a resumed one.
        """

        volatile = set(self.timing_names)
        return RegistrySnapshot(
            counters={k: v for k, v in self.counters.items()
                      if k not in volatile},
            gauges={k: v for k, v in self.gauges.items() if k not in volatile},
            histograms={k: v for k, v in self.histograms.items()
                        if k not in volatile},
        )

    def to_json(self) -> Dict[str, object]:
        return {
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "histograms": {
                name: {"buckets": list(buckets), "counts": list(counts),
                       "count": count, "sum": total}
                for name, (buckets, counts, count, total)
                in self.histograms.items()
            },
            "timing_names": list(self.timing_names),
            "spans": [span.to_json() for span in self.spans],
        }

    def canonical_bytes(self) -> bytes:
        """Sorted-key JSON encoding: the byte-identity comparison form."""

        return json.dumps(self.to_json(), sort_keys=True,
                          separators=(",", ":")).encode("utf-8")

    def jsonl_lines(self, context: Optional[Dict[str, object]] = None
                    ) -> List[str]:
        """One JSON object per metric — the JSON-lines sink encoding."""

        base = dict(context or {})
        lines: List[str] = []

        def emit(payload: Dict[str, object]) -> None:
            record = dict(base)
            record.update(payload)
            lines.append(json.dumps(record, sort_keys=True))

        for name in sorted(self.counters):
            emit({"type": "counter", "name": name,
                  "value": self.counters[name]})
        for name in sorted(self.gauges):
            emit({"type": "gauge", "name": name, "value": self.gauges[name]})
        for name in sorted(self.histograms):
            buckets, counts, count, total = self.histograms[name]
            emit({"type": "histogram", "name": name,
                  "buckets": list(buckets), "counts": list(counts),
                  "count": count, "sum": total})
        for span in self.spans:
            emit(dict({"type": "span"}, **span.to_json()))
        return lines


class MetricsRegistry:
    """A live collection of named instruments (get-or-create semantics)."""

    enabled = True

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        self.spans: List[SpanRecord] = []

    def counter(self, name: str, timing: bool = False) -> Counter:
        instrument = self._counters.get(name)
        if instrument is None:
            instrument = self._counters[name] = Counter(name, timing=timing)
        return instrument

    def gauge(self, name: str, timing: bool = False) -> Gauge:
        instrument = self._gauges.get(name)
        if instrument is None:
            instrument = self._gauges[name] = Gauge(name, timing=timing)
        return instrument

    def histogram(self, name: str,
                  buckets: Tuple[float, ...] = COUNT_BUCKETS,
                  timing: bool = False) -> Histogram:
        instrument = self._histograms.get(name)
        if instrument is None:
            instrument = self._histograms[name] = Histogram(
                name, buckets, timing=timing)
        return instrument

    def record_span(self, span: SpanRecord) -> None:
        self.spans.append(span)

    def snapshot(self) -> RegistrySnapshot:
        timing = sorted(
            [c.name for c in self._counters.values() if c.timing]
            + [g.name for g in self._gauges.values() if g.timing]
            + [h.name for h in self._histograms.values() if h.timing])
        return RegistrySnapshot(
            counters={c.name: c.value for c in self._counters.values()},
            gauges={g.name: g.value for g in self._gauges.values()},
            histograms={h.name: (h.buckets, tuple(h.counts), h.count, h.sum)
                        for h in self._histograms.values()},
            timing_names=tuple(timing),
            spans=tuple(self.spans),
        )

    def merge_snapshot(self, snapshot: RegistrySnapshot) -> None:
        """Fold a (possibly cross-process) snapshot into the live registry."""

        timing = set(snapshot.timing_names)
        for name, value in snapshot.counters.items():
            self.counter(name, timing=name in timing).inc(value)
        for name, value in snapshot.gauges.items():
            self.gauge(name, timing=name in timing).set(value)
        for name, (buckets, counts, count, total) in snapshot.histograms.items():
            histogram = self.histogram(name, buckets=buckets,
                                       timing=name in timing)
            if histogram.buckets != tuple(buckets):
                raise ValueError(
                    f"histogram {name!r} bucket boundaries differ between "
                    "registry and merged snapshot")
            for index, value in enumerate(counts):
                histogram.counts[index] += value
            histogram.count += count
            histogram.sum += total
        self.spans.extend(snapshot.spans)
