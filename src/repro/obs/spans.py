"""Hierarchical span tracing: where did the wall-clock actually go?

A :class:`SpanTracer` answers the attribution question — *which phase
owns each second of a run* — by recording **nested** enter/exit spans
and splitting every span's duration into *self* time (spent in the
phase itself) and *cumulative* time (phase plus its children).  Summed
over a trace, the self times of all spans tile the root spans'
durations exactly, which is what lets a
:class:`~repro.obs.telemetry.PhaseReport` check that its per-phase
accounting covers the measured wall-clock.  Per-path aggregates
(:meth:`SpanTracer.aggregate`) also give each phase's latency
distribution, so the same spans answer "how long does one σ
construction take" (p50/p99 per path).

Producers hold an ``Optional[SpanTracer]`` and hoist the ``is not
None`` check out of hot loops into a local, so a detached tracer costs
one predictable branch per site and changes nothing else
(``benchmarks/bench_obs_overhead.py`` bounds the disabled cost and the
golden-trace suite pins the zero-behaviour half of the contract).

Usage::

    tracer = SpanTracer()
    with tracer.span("campaign"):
        with tracer.span("simulate"):
            ...                       # children charge their parent
    tracer.aggregate()["campaign/simulate"].total
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter
from typing import Dict, Iterator, List

from .metrics import Histogram

__all__ = ["Span", "SpanTracer", "PhaseStats"]


@dataclass(frozen=True)
class Span:
    """One completed, timed phase instance.

    ``path`` is the slash-joined chain of enclosing span names (ending
    in ``name``); ``start`` is seconds since the tracer's epoch, so
    spans from one tracer lay out on a common timeline.  ``self_time``
    is ``duration`` minus the duration of every direct child.
    """

    seq: int
    path: str
    name: str
    depth: int
    start: float
    duration: float
    self_time: float
    worker: str = "main"


@dataclass
class PhaseStats:
    """Aggregate of every span sharing one path."""

    path: str
    count: int
    total: float
    self_total: float
    p50: float
    p99: float


class SpanTracer:
    """Nested enter/exit wall-clock spans with self-time attribution."""

    __slots__ = ("spans", "worker", "_stack", "_epoch")

    def __init__(self, worker: str = "main") -> None:
        self.spans: List[Span] = []
        self.worker = worker
        #: Open frames: [name, start (absolute), accumulated child time].
        self._stack: List[List] = []
        self._epoch = perf_counter()

    # ------------------------------------------------------------------
    # Clock helpers
    # ------------------------------------------------------------------
    def now(self) -> float:
        """Seconds since this tracer's epoch (timeline coordinates)."""
        return perf_counter() - self._epoch

    def rel(self, t_abs: float) -> float:
        """Convert an absolute ``perf_counter`` stamp to timeline time."""
        return t_abs - self._epoch

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def enter(self, name: str) -> None:
        """Open a span; every subsequent span nests under it until exit."""
        self._stack.append([name, perf_counter(), 0.0])

    def exit(self) -> None:
        """Close the innermost open span and record it."""
        if not self._stack:
            raise RuntimeError("SpanTracer.exit() without a matching enter()")
        name, start, child_time = self._stack.pop()
        duration = perf_counter() - start
        if self._stack:
            self._stack[-1][2] += duration
        path = "/".join([frame[0] for frame in self._stack] + [name])
        self.spans.append(
            Span(
                seq=len(self.spans),
                path=path,
                name=name,
                depth=len(self._stack),
                start=start - self._epoch,
                duration=duration,
                self_time=max(0.0, duration - child_time),
                worker=self.worker,
            )
        )

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Context-manager form of :meth:`enter` / :meth:`exit`."""
        self.enter(name)
        try:
            yield
        finally:
            self.exit()

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------
    @property
    def open_depth(self) -> int:
        return len(self._stack)

    def merge(self, other: "SpanTracer") -> None:
        """Append ``other``'s completed spans (re-sequenced) to this
        tracer.  Timelines are kept as-is: each span's ``start`` stays
        relative to its own tracer's epoch."""
        for s in other.spans:
            self.spans.append(
                Span(len(self.spans), s.path, s.name, s.depth, s.start,
                     s.duration, s.self_time, s.worker)
            )

    def aggregate(self) -> Dict[str, PhaseStats]:
        """Per-path phase statistics, keyed and sorted by path.

        Percentiles use :class:`~repro.obs.metrics.Histogram` semantics
        (nearest-rank) over each path's span durations.
        """
        durations: Dict[str, Histogram] = {}
        self_totals: Dict[str, float] = {}
        for s in self.spans:
            hist = durations.get(s.path)
            if hist is None:
                hist = durations[s.path] = Histogram()
                self_totals[s.path] = 0.0
            hist.observe(s.duration)
            self_totals[s.path] += s.self_time
        return {
            path: PhaseStats(
                path=path,
                count=hist.count,
                total=hist.total,
                self_total=self_totals[path],
                p50=hist.percentile(50.0),
                p99=hist.percentile(99.0),
            )
            for path, hist in sorted(durations.items())
        }

    def __len__(self) -> int:
        return len(self.spans)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SpanTracer({len(self.spans)} spans, "
            f"{len(self._stack)} open, worker={self.worker!r})"
        )
