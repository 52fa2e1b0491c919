"""The :class:`Observer` facade — one handle for all three sinks.

The engine and the schedulers accept an ``Optional[Observer]``.  With
``None`` (the default everywhere) every instrumentation site reduces to
a single ``is not None`` branch, keeping benchmark numbers honest; with
an observer attached, each sink can still be enabled independently:

* ``events``  — the structured decision log (:class:`EventLog`),
* ``metrics`` — the counters/gauges/histograms registry,
* ``spans`` — hierarchical wall-clock spans (:class:`SpanTracer`) from
  the engine phases down to σ construction, feasibility probes and
  ``decideFreq()`` (off by default: timestamping costs real time even
  when cheap).

The guarded helpers (:meth:`emit`, :meth:`inc`, :meth:`set_gauge`,
:meth:`observe`) no-op when their sink is disabled, so call sites stay
one line.  Span sites hoist ``obs.spans`` into a local once per call
and branch on ``is not None``.
"""

from __future__ import annotations

from typing import Optional

from .events import EventKind, EventLog, FieldValue
from .metrics import MetricsRegistry
from .spans import SpanTracer

__all__ = ["Observer"]


class Observer:
    """Bundle of the observability sinks a run writes to."""

    __slots__ = ("events", "metrics", "spans")

    def __init__(
        self,
        events: bool = True,
        metrics: bool = True,
        spans: bool = False,
    ):
        self.events: Optional[EventLog] = EventLog() if events else None
        self.metrics: Optional[MetricsRegistry] = MetricsRegistry() if metrics else None
        self.spans: Optional[SpanTracer] = SpanTracer() if spans else None

    # ------------------------------------------------------------------
    # Guarded conveniences — each is a no-op when its sink is disabled.
    # ------------------------------------------------------------------
    def emit(
        self,
        time: float,
        kind: EventKind,
        job: Optional[str] = None,
        source: str = "engine",
        **fields: FieldValue,
    ) -> None:
        if self.events is not None:
            self.events.emit(time, kind, job, source, **fields)

    def inc(self, name: str, amount: float = 1.0, **labels: object) -> None:
        if self.metrics is not None:
            self.metrics.counter(name, **labels).inc(amount)

    def set_gauge(self, name: str, value: float, **labels: object) -> None:
        if self.metrics is not None:
            self.metrics.gauge(name, **labels).set(value)

    def observe(self, name: str, value: float, **labels: object) -> None:
        if self.metrics is not None:
            self.metrics.histogram(name, **labels).observe(value)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        on = [
            name
            for name, sink in (
                ("events", self.events),
                ("metrics", self.metrics),
                ("spans", self.spans),
            )
            if sink is not None
        ]
        return f"Observer({', '.join(on) or 'all sinks off'})"
