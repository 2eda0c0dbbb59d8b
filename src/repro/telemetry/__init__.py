"""``repro.telemetry`` — unified metrics, spans and VM profiling.

The observability layer the rest of the system records into:

* :class:`~repro.telemetry.registry.MetricsRegistry` — process- or
  search-local counters, gauges and fixed-bucket histograms whose snapshots
  are picklable and merge *exactly* (bucket-wise integer addition), so
  telemetry carried across a checkpoint and resume is byte-identical to an
  uninterrupted run's;
* :func:`~repro.telemetry.spans.span` — nested wall-clock intervals
  (``with span("replay.search", cluster=...)``) recorded into the active
  registry's timeline;
* :mod:`~repro.telemetry.runtime` — the thread-local resolution of "the
  active registry", which compiles to shared no-op singletons when
  :attr:`~repro.core.config.PipelineConfig.telemetry_enabled` is off (the
  default);
* :func:`write_jsonl` — the JSON-lines sink, one metric object per line,
  consumed by ``python -m repro stats`` and the CI telemetry smoke job.

Determinism contract: telemetry never feeds back into execution, and every
metric that is not a pure function of the committed work (wall clocks,
per-process cache warmth, repair in place) is flagged ``timing=True`` and
excluded from :meth:`RegistrySnapshot.deterministic` — the subset the
differential tests compare byte-for-byte between an uninterrupted search
and one that was checkpointed, killed and resumed.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.telemetry.registry import (
    COUNT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    RegistrySnapshot,
    SECONDS_BUCKETS,
    SpanRecord,
)
from repro.telemetry.runtime import (
    NULL_REGISTRY,
    NullRegistry,
    active,
    scoped,
)
from repro.telemetry.spans import span

__all__ = [
    "COUNT_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_REGISTRY",
    "NullRegistry",
    "RegistrySnapshot",
    "SECONDS_BUCKETS",
    "SpanRecord",
    "active",
    "read_jsonl",
    "render_summary",
    "scoped",
    "span",
    "write_jsonl",
]


def write_jsonl(path: str, snapshot: RegistrySnapshot,
                context: Optional[Dict[str, object]] = None,
                append: bool = True) -> str:
    """Append *snapshot* to the JSON-lines sink at *path*; returns the path."""

    lines = snapshot.jsonl_lines(context)
    with open(path, "a" if append else "w") as handle:
        for line in lines:
            handle.write(line + "\n")
    return path


def read_jsonl(path: str) -> List[Dict[str, object]]:
    """Parse a JSON-lines sink file back into a list of metric records."""

    import json

    records: List[Dict[str, object]] = []
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records


def render_summary(records: List[Dict[str, object]]) -> str:
    """A human-readable rendering of JSON-lines records (the CLI face)."""

    lines: List[str] = []
    counters = [r for r in records if r.get("type") == "counter"]
    gauges = [r for r in records if r.get("type") == "gauge"]
    histograms = [r for r in records if r.get("type") == "histogram"]
    spans = [r for r in records if r.get("type") == "span"]
    if counters:
        lines.append("counters:")
        for record in sorted(counters, key=lambda r: r["name"]):
            lines.append(f"  {record['name']} = {record['value']}")
    if gauges:
        lines.append("gauges:")
        for record in sorted(gauges, key=lambda r: r["name"]):
            lines.append(f"  {record['name']} = {record['value']}")
    if histograms:
        lines.append("histograms:")
        for record in sorted(histograms, key=lambda r: r["name"]):
            count = record["count"]
            total = record["sum"]
            mean = (total / count) if count else 0.0
            lines.append(f"  {record['name']}: count={count} sum={total:.6g} "
                         f"mean={mean:.6g}")
    if spans:
        lines.append("spans:")
        for record in spans:
            indent = "  " * (1 + int(record.get("depth", 0)))
            attrs = record.get("attrs") or {}
            suffix = (" " + " ".join(f"{k}={v}" for k, v in sorted(attrs.items()))
                      if attrs else "")
            lines.append(f"{indent}{record['name']} "
                         f"{record['seconds']:.6f}s{suffix}")
    return "\n".join(lines) if lines else "(no telemetry records)"
