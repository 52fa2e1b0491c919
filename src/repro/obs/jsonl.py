"""JSONL export/import for event logs and metrics registries.

One JSON object per line, ``type`` field first, so traces stream
through standard tooling (``jq``, ``grep``, a columnar loader) and
concatenating files from repeated runs is itself a valid log.  Floats
serialise via ``repr`` (the :mod:`json` default), which round-trips
IEEE doubles exactly — the import/export pair is lossless and the test
suite asserts equality, not approximation.
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, List

from .events import Event, EventKind, EventLog
from .metrics import Histogram, MetricsRegistry
from .spans import Span, SpanTracer
from .telemetry import PHASE_REPORT_VERSION, PhaseReport

__all__ = [
    "events_to_jsonl",
    "events_from_jsonl",
    "metrics_to_jsonl",
    "metrics_from_jsonl",
    "spans_to_jsonl",
    "spans_from_jsonl",
    "phase_report_to_jsonl",
    "phase_report_from_jsonl",
]


# ----------------------------------------------------------------------
# Event logs
# ----------------------------------------------------------------------
def events_to_jsonl(log: Iterable[Event]) -> str:
    """Serialise an event log (or any run of its events), one event per line."""
    lines: List[str] = []
    for e in log:
        row = {
            "type": "event",
            "seq": e.seq,
            "time": e.time,
            "kind": e.kind.value,
            "job": e.job,
            "source": e.source,
            "fields": e.fields,
        }
        lines.append(json.dumps(row, sort_keys=False))
    return "\n".join(lines) + ("\n" if lines else "")


def events_from_jsonl(text: str) -> EventLog:
    """Rebuild an :class:`EventLog` from :func:`events_to_jsonl` output."""
    log = EventLog()
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        row = json.loads(line)
        if row.get("type") != "event":
            raise ValueError(f"line {lineno}: expected an event row, got {row.get('type')!r}")
        log.append(
            Event(
                seq=int(row["seq"]),
                time=float(row["time"]),
                kind=EventKind(row["kind"]),
                job=row.get("job"),
                source=row.get("source", "engine"),
                fields=dict(row.get("fields", {})),
            )
        )
    return log


# ----------------------------------------------------------------------
# Metrics registries
# ----------------------------------------------------------------------
def metrics_to_jsonl(registry: MetricsRegistry) -> str:
    """Serialise a registry, one instrument per line."""
    lines: List[str] = []
    for (name, labels), c in sorted(registry.counters().items()):
        lines.append(json.dumps(
            {"type": "counter", "name": name, "labels": dict(labels), "value": c.value}
        ))
    for (name, labels), g in sorted(registry.gauges().items()):
        lines.append(json.dumps(
            {"type": "gauge", "name": name, "labels": dict(labels),
             "value": g.value, "total": g.total, "n": g.n}
        ))
    for (name, labels), h in sorted(registry.histograms().items()):
        lines.append(json.dumps(
            {"type": "histogram", "name": name, "labels": dict(labels),
             "samples": h.samples}
        ))
    return "\n".join(lines) + ("\n" if lines else "")


def metrics_from_jsonl(text: str) -> MetricsRegistry:
    """Rebuild a :class:`MetricsRegistry` from :func:`metrics_to_jsonl`."""
    registry = MetricsRegistry()
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        row = json.loads(line)
        kind = row.get("type")
        labels: Dict[str, str] = dict(row.get("labels", {}))
        if kind == "counter":
            registry.counter(row["name"], **labels).inc(float(row["value"]))
        elif kind == "gauge":
            gauge = registry.gauge(row["name"], **labels)
            gauge.value = float(row["value"])
            gauge.total = float(row["total"])
            gauge.n = int(row["n"])
        elif kind == "histogram":
            hist = registry.histogram(row["name"], **labels)
            hist.samples.extend(float(s) for s in row["samples"])
        else:
            raise ValueError(f"line {lineno}: unknown instrument type {kind!r}")
    return registry


# ----------------------------------------------------------------------
# Spans and phase reports (versioned wire format)
# ----------------------------------------------------------------------
def spans_to_jsonl(tracer: SpanTracer) -> str:
    """Serialise completed spans, one per line, in sequence order."""
    lines: List[str] = []
    for s in tracer.spans:
        lines.append(json.dumps({
            "type": "span",
            "version": PHASE_REPORT_VERSION,
            "seq": s.seq,
            "path": s.path,
            "name": s.name,
            "depth": s.depth,
            "start": s.start,
            "duration": s.duration,
            "self": s.self_time,
            "worker": s.worker,
        }))
    return "\n".join(lines) + ("\n" if lines else "")


def spans_from_jsonl(text: str) -> SpanTracer:
    """Rebuild a (closed) :class:`SpanTracer` from :func:`spans_to_jsonl`
    output.  The returned tracer carries the recorded spans; its clock
    restarts, so it can also keep tracing."""
    tracer = SpanTracer()
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        row = json.loads(line)
        if row.get("type") != "span":
            raise ValueError(f"line {lineno}: expected a span row, got {row.get('type')!r}")
        version = int(row.get("version", 0))
        if version != PHASE_REPORT_VERSION:
            raise ValueError(
                f"line {lineno}: span version {version} unsupported "
                f"(this build reads version {PHASE_REPORT_VERSION})"
            )
        tracer.spans.append(Span(
            seq=int(row["seq"]),
            path=str(row["path"]),
            name=str(row["name"]),
            depth=int(row["depth"]),
            start=float(row["start"]),
            duration=float(row["duration"]),
            self_time=float(row["self"]),
            worker=str(row.get("worker", "main")),
        ))
    return tracer


def phase_report_to_jsonl(report: PhaseReport) -> str:
    """Serialise a :class:`PhaseReport` as one versioned JSONL row."""
    return json.dumps({"type": "phase_report", **report.to_dict()}) + "\n"


def phase_report_from_jsonl(text: str) -> PhaseReport:
    """Rebuild a :class:`PhaseReport` from :func:`phase_report_to_jsonl`
    output (exactly one non-empty row expected)."""
    rows = [line for line in text.splitlines() if line.strip()]
    if len(rows) != 1:
        raise ValueError(f"expected exactly one phase_report row, got {len(rows)}")
    row = json.loads(rows[0])
    if row.get("type") != "phase_report":
        raise ValueError(f"expected a phase_report row, got {row.get('type')!r}")
    return PhaseReport.from_dict(row)
