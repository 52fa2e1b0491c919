"""A lightweight metrics registry: counters, gauges, histograms.

Instruments are created on demand, keyed by name plus a small label set
(e.g. per-frequency residency is one counter per ``mhz`` label), and
aggregate per run.  Registries from repeated runs of an experiment merge
with :meth:`MetricsRegistry.merge`, so a sweep reports fleet-level
totals and pooled latency distributions.

This registry is deliberately separate from
:class:`repro.sim.metrics.Metrics`: that class derives the *paper's*
outcome quantities from the final job population, while this one
accumulates *operational* quantities (decision counts, residency,
latencies) as they happen.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

__all__ = ["Counter", "Gauge", "Histogram", "MetricKey", "MetricsRegistry"]

#: Registry key: (metric name, sorted (label, value) pairs).
MetricKey = Tuple[str, Tuple[Tuple[str, str], ...]]


def _key(name: str, labels: Mapping[str, object]) -> MetricKey:
    return name, tuple(sorted((k, str(v)) for k, v in labels.items()))


class Counter:
    """A monotonically increasing total."""

    __slots__ = ("value",)

    def __init__(self, value: float = 0.0):
        self.value = value

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0.0:
            raise ValueError(f"counters only go up, got {amount!r}")
        # Canonicalise to float so the JSONL wire format round-trips.
        self.value += float(amount)


class Gauge:
    """A point-in-time level (queue depth, pending budget, ...).

    Tracks the last set value plus running sum/count so merged
    repetitions report a meaningful mean rather than an arbitrary last
    write.
    """

    __slots__ = ("value", "total", "n")

    def __init__(self) -> None:
        self.value = 0.0
        self.total = 0.0
        self.n = 0

    def set(self, value: float) -> None:
        # Canonicalise to float so the JSONL wire format round-trips.
        value = float(value)
        self.value = value
        self.total += value
        self.n += 1

    @property
    def mean(self) -> float:
        return self.total / self.n if self.n else 0.0


class Histogram:
    """A sample distribution with exact quantiles.

    Keeps raw samples (simulation runs produce thousands, not billions);
    quantiles use the **nearest-rank** method on a lazily sorted copy —
    see :meth:`percentile` for the exact contract, which
    :class:`~repro.obs.spans.SpanTracer` and
    :class:`~repro.obs.telemetry.PhaseReport` both inherit.
    """

    __slots__ = ("samples", "_sorted")

    def __init__(self) -> None:
        self.samples: List[float] = []
        self._sorted: Optional[List[float]] = None

    def observe(self, value: float) -> None:
        # Canonicalise to float so the JSONL wire format round-trips.
        self.samples.append(float(value))
        self._sorted = None

    @property
    def count(self) -> int:
        return len(self.samples)

    @property
    def total(self) -> float:
        return sum(self.samples)

    @property
    def mean(self) -> float:
        return self.total / len(self.samples) if self.samples else 0.0

    @property
    def max(self) -> float:
        return max(self.samples) if self.samples else 0.0

    def percentile(self, p: float) -> float:
        """Nearest-rank percentile, ``p`` in [0, 100].

        The result is the sample at rank ``max(1, ceil(p/100 · n))`` of
        the sorted list — always an **observed sample**, never an
        interpolated value (there is no linear interpolation between
        ranks).  Consequences worth knowing, all pinned by the property
        suite (``tests/obs/test_metrics.py``):

        * ``percentile(0)`` is the minimum and ``percentile(100)`` the
          maximum; the function is non-decreasing in ``p``.
        * Small samples saturate early: with ``n == 1`` every ``p``
          returns the single sample; with ``n == 2``, ``p <= 50``
          returns the minimum and ``p > 50`` the maximum.  In general
          ``p > 100·(n-1)/n`` already returns the maximum, so p99 needs
          ``n >= 100`` before it can differ from ``max``.
        * An empty histogram returns ``0.0`` for every ``p``.
        """
        if not 0.0 <= p <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {p!r}")
        if not self.samples:
            return 0.0
        if self._sorted is None:
            self._sorted = sorted(self.samples)
        rank = max(1, math.ceil(p / 100.0 * len(self._sorted)))
        return self._sorted[rank - 1]


class MetricsRegistry:
    """Get-or-create instrument store, mergeable across repetitions."""

    __slots__ = ("_counters", "_gauges", "_histograms")

    def __init__(self) -> None:
        self._counters: Dict[MetricKey, Counter] = {}
        self._gauges: Dict[MetricKey, Gauge] = {}
        self._histograms: Dict[MetricKey, Histogram] = {}

    # ------------------------------------------------------------------
    # Instrument accessors (create on first use)
    # ------------------------------------------------------------------
    def counter(self, name: str, **labels: object) -> Counter:
        key = _key(name, labels)
        inst = self._counters.get(key)
        if inst is None:
            inst = self._counters[key] = Counter()
        return inst

    def gauge(self, name: str, **labels: object) -> Gauge:
        key = _key(name, labels)
        inst = self._gauges.get(key)
        if inst is None:
            inst = self._gauges[key] = Gauge()
        return inst

    def histogram(self, name: str, **labels: object) -> Histogram:
        key = _key(name, labels)
        inst = self._histograms.get(key)
        if inst is None:
            inst = self._histograms[key] = Histogram()
        return inst

    # ------------------------------------------------------------------
    # Iteration / queries
    # ------------------------------------------------------------------
    def counters(self) -> Dict[MetricKey, Counter]:
        return dict(self._counters)

    def gauges(self) -> Dict[MetricKey, Gauge]:
        return dict(self._gauges)

    def histograms(self) -> Dict[MetricKey, Histogram]:
        return dict(self._histograms)

    def counter_value(self, name: str, **labels: object) -> float:
        inst = self._counters.get(_key(name, labels))
        return inst.value if inst is not None else 0.0

    def family(self, name: str) -> Dict[MetricKey, Counter]:
        """All counters sharing ``name`` (e.g. one per frequency label)."""
        return {k: c for k, c in self._counters.items() if k[0] == name}

    # ------------------------------------------------------------------
    # Aggregation across repetitions
    # ------------------------------------------------------------------
    def merge(self, other: "MetricsRegistry") -> None:
        """Fold ``other`` into this registry in place.

        Counters add, histograms pool their samples, and gauges combine
        their running sums (``mean`` stays the pooled mean; ``value``
        becomes the other registry's last write, i.e. merge order is the
        repetition order).
        """
        for key, c in other._counters.items():
            name, labels = key
            self.counter(name, **dict(labels)).inc(c.value)
        for key, g in other._gauges.items():
            name, labels = key
            mine = self.gauge(name, **dict(labels))
            mine.value = g.value
            mine.total += g.total
            mine.n += g.n
        for key, h in other._histograms.items():
            name, labels = key
            mine = self.histogram(name, **dict(labels))
            mine.samples.extend(h.samples)
            mine._sorted = None

    @classmethod
    def merged(cls, registries: Iterable["MetricsRegistry"]) -> "MetricsRegistry":
        out = cls()
        for reg in registries:
            out.merge(reg)
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"MetricsRegistry({len(self._counters)} counters, "
            f"{len(self._gauges)} gauges, {len(self._histograms)} histograms)"
        )
