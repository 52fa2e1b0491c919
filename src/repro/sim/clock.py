"""The service's wall clock and its drift accounting.

The :class:`~repro.sim.engine.Engine` is purely discrete-event: between
scheduling events nothing observable happens, so it jumps straight to
the next event instant and never consults a clock.  Real time enters
only through the live service (:mod:`repro.svc`): its asyncio executor
paces ``ServiceCore`` (the engine's job lifecycle behind a UAM +
admission gate) with a :class:`WallClock` — it reads ``now``, sleeps
``wall_remaining`` on the event loop, and records how late each wake-up
was with ``note_lag`` into :class:`ClockDrift`, which ``/stats``
reports.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass
from typing import Optional

__all__ = ["ClockDrift", "WallClock"]


@dataclass
class ClockDrift:
    """Aggregate lag accounting over a clock's waits.

    Lag is measured in *clock* seconds (emulated time): how far past
    the target instant the clock had already advanced when the waiter
    woke.  It accumulates scheduler latency, sleep quantisation and
    host preemption.
    """

    waits: int = 0
    #: Waits that ended at or before the target instant.
    punctual: int = 0
    total_lag: float = 0.0
    max_lag: float = 0.0
    #: Most recent lag (gauge for live dashboards).
    last_lag: float = 0.0

    def record(self, lag: float) -> float:
        lag = max(0.0, lag)
        self.waits += 1
        if lag <= 0.0:
            self.punctual += 1
        self.total_lag += lag
        if lag > self.max_lag:
            self.max_lag = lag
        self.last_lag = lag
        return lag

    @property
    def mean_lag(self) -> float:
        return self.total_lag / self.waits if self.waits else 0.0

    def summary(self) -> dict:
        """JSON-friendly snapshot (service ``/stats``, load reports)."""
        return {
            "waits": self.waits,
            "punctual": self.punctual,
            "mean_lag_s": self.mean_lag,
            "max_lag_s": self.max_lag,
            "total_lag_s": self.total_lag,
        }


class WallClock:
    """Monotonic wall-clock time, optionally rate-scaled.

    ``rate`` maps wall seconds to clock seconds: at ``rate=60`` one wall
    second advances the clock by sixty — the load-replay harness uses
    this to compress long arrival traces into short wall-clock runs
    while preserving every relative deadline.  ``now()`` is anchored at
    :meth:`start` via :func:`time.monotonic`, so host clock adjustments
    never move it backwards.
    """

    def __init__(self, rate: float = 1.0):
        if rate <= 0.0:
            raise ValueError(f"rate must be > 0, got {rate!r}")
        self.rate = float(rate)
        self.drift = ClockDrift()
        self._anchor: Optional[float] = None

    def start(self) -> None:
        """Anchor the clock at time zero (idempotent)."""
        if self._anchor is None:
            self._anchor = _time.monotonic()

    def now(self) -> float:
        """Emulated seconds since :meth:`start` (0 before it)."""
        if self._anchor is None:
            return 0.0
        return (_time.monotonic() - self._anchor) * self.rate

    def wall_remaining(self, t: float) -> float:
        """Wall seconds until clock time ``t`` (negative when past)."""
        return (t - self.now()) / self.rate

    def note_lag(self, t: float) -> float:
        """Record drift against target ``t`` without sleeping."""
        return self.drift.record(self.now() - t)
