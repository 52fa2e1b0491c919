"""Structured observability for the scheduler stack.

Three sinks behind one :class:`Observer` facade:

* :class:`EventLog` — typed scheduler-decision records (releases,
  σ insertions/rejections with UER, aborts, expiries, completions,
  ``decideFreq`` choices with their look-ahead window, dispatches,
  preemptions, frequency switches);
* :class:`MetricsRegistry` — counters, gauges and histograms
  aggregated per run and mergeable across experiment repetitions;
* :class:`SpanTracer` — opt-in hierarchical enter/exit spans, from
  the engine's phases down to σ construction, feasibility probes and
  ``decideFreq()``, whose self-time decomposition attributes the
  wall-clock to phases; they aggregate (with :class:`Telemetry` worker
  lanes and counters) into a :class:`PhaseReport`.

Everything is zero-cost when disabled: producers take an
``Optional[Observer]`` (default ``None``) and guard each site with a
single branch.  See ``docs/observability.md`` for the event schema,
metric names, span phases and CLI examples.
"""

from .events import Event, EventKind, EventLog
from .jsonl import (
    events_from_jsonl,
    events_to_jsonl,
    metrics_from_jsonl,
    metrics_to_jsonl,
    phase_report_from_jsonl,
    phase_report_to_jsonl,
)
from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .observer import Observer
from .spans import PhaseStats, Span, SpanTracer
from .telemetry import (
    PHASE_REPORT_VERSION,
    PhaseReport,
    PhaseRow,
    Telemetry,
    WorkerInterval,
    WorkerLane,
    build_phase_report,
)

__all__ = [
    "Event",
    "EventKind",
    "EventLog",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Observer",
    "Span",
    "SpanTracer",
    "PhaseStats",
    "PhaseReport",
    "PhaseRow",
    "Telemetry",
    "WorkerInterval",
    "WorkerLane",
    "PHASE_REPORT_VERSION",
    "build_phase_report",
    "events_to_jsonl",
    "events_from_jsonl",
    "metrics_to_jsonl",
    "metrics_from_jsonl",
    "phase_report_to_jsonl",
    "phase_report_from_jsonl",
]
