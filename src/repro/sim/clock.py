"""Clock abstraction: simulated vs wall-clock time advance.

The :class:`~repro.sim.engine.Engine` is a discrete-event simulator —
between scheduling events nothing observable happens, so the default
(virtual) clock jumps straight to the next event instant.  With a
non-virtual clock (``simulate(clock="wall")``) the engine instead
sleeps until each event instant actually arrives (arrivals, predicted
completions, and TUF termination times — the deadline timers), then
applies exactly the state change it would have applied in simulation.
The service (:mod:`repro.svc`) does not run the engine: its
``ServiceCore`` has its own release → expire → decide → advance →
complete cycle, and the asyncio front-end paces that cycle with a
:class:`WallClock`'s ``now``/``wall_remaining``/``note_lag``.

Contract
--------
``wait_until(t)`` blocks until clock time reaches ``t`` and returns the
*lag* — how far past ``t`` the clock was when the wait ended.  A virtual
clock never waits (lag 0 by construction); a wall clock accumulates the
per-wait lag into :class:`ClockDrift`, the drift accounting the service
reports.  The engine only consults the clock when one is attached and
``clock.virtual`` is false, so the simulation path executes zero new
floating-point operations — ``clock=None`` (the default) and
``clock="sim"`` are bit-identical to the pre-clock engine, which the
golden-trace suite pins.
"""

from __future__ import annotations

import time as _time
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import List, Optional, Union

__all__ = ["Clock", "ClockDrift", "SimClock", "WallClock", "FakeClock", "as_clock"]


@dataclass
class ClockDrift:
    """Aggregate lag accounting over a clock's waits.

    Lag is measured in *clock* seconds (the engine's time domain): how
    far past the requested instant the clock had already advanced when
    ``wait_until`` returned.  A discrete-event run has zero everywhere;
    a wall-clock run accumulates scheduler latency, sleep quantisation
    and host preemption here.
    """

    waits: int = 0
    #: Waits that returned at or before the requested instant.
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


class Clock(ABC):
    """Time source the engine advances against.

    ``virtual`` clocks jump (discrete-event semantics); non-virtual
    clocks are *waited on* — the engine calls :meth:`wait_until` with
    every upcoming event instant, including TUF termination times, so
    expiry processing happens when the deadline actually passes.
    """

    #: Virtual clocks never block; the engine skips ``wait_until``.
    virtual: bool = True

    def __init__(self) -> None:
        self.drift = ClockDrift()

    def start(self) -> None:
        """Anchor the clock at time zero (idempotent for virtual clocks)."""

    @abstractmethod
    def now(self) -> float:
        """Current clock time in seconds since :meth:`start`."""

    @abstractmethod
    def wait_until(self, t: float) -> float:
        """Block until clock time reaches ``t``; return the lag."""

    def wall_remaining(self, t: float) -> float:
        """Wall seconds until clock time ``t`` (negative when past).

        Cooperative waiters (the asyncio service) sleep this long on
        the event loop instead of calling the blocking
        :meth:`wait_until`.  Identity mapping by default; rate-scaled
        clocks override it.
        """
        return t - self.now()

    def note_lag(self, t: float) -> float:
        """Record drift against target ``t`` without sleeping."""
        return self.drift.record(self.now() - t)


class SimClock(Clock):
    """The discrete-event clock: jumps to each requested instant.

    Attaching one is behaviourally identical to attaching no clock at
    all (the engine never waits on a virtual clock); it exists so
    ``clock="sim"`` is an explicit, inspectable choice and so code
    written against the :class:`Clock` interface can run in simulation.
    """

    virtual = True

    def __init__(self) -> None:
        super().__init__()
        self._now = 0.0

    def now(self) -> float:
        return self._now

    def wait_until(self, t: float) -> float:
        if t > self._now:
            self._now = t
        return self.drift.record(0.0)


class WallClock(Clock):
    """Monotonic wall-clock time, optionally rate-scaled.

    ``rate`` maps wall seconds to clock seconds: at ``rate=60`` one wall
    second advances the clock by sixty — the load-replay harness uses
    this to compress long arrival traces into short wall-clock runs
    while preserving every relative deadline.  ``now()`` is anchored at
    :meth:`start` via :func:`time.monotonic`, so host clock adjustments
    never move it backwards.

    Waits sleep in bounded chunks (``max_sleep`` wall seconds) so a
    long idle period stays interruptible by ``KeyboardInterrupt``
    without a signal-handling dependency.
    """

    virtual = False

    def __init__(self, rate: float = 1.0, max_sleep: float = 0.5):
        if rate <= 0.0:
            raise ValueError(f"rate must be > 0, got {rate!r}")
        super().__init__()
        self.rate = float(rate)
        self.max_sleep = float(max_sleep)
        self._anchor: Optional[float] = None

    def start(self) -> None:
        if self._anchor is None:
            self._anchor = _time.monotonic()

    def now(self) -> float:
        if self._anchor is None:
            return 0.0
        return (_time.monotonic() - self._anchor) * self.rate

    def wall_remaining(self, t: float) -> float:
        """Wall seconds until clock time ``t`` (negative when past)."""
        return (t - self.now()) / self.rate

    def wait_until(self, t: float) -> float:
        self.start()
        while True:
            remaining = self.wall_remaining(t)
            if remaining <= 0.0:
                break
            _time.sleep(min(remaining, self.max_sleep))
        return self.drift.record(self.now() - t)

class FakeClock(Clock):
    """Deterministic non-virtual clock for driver tests.

    Behaves like a wall clock that is always punctual (or late by a
    scripted amount), without ever sleeping: ``wait_until`` records the
    requested instant in :attr:`waits` and advances ``now`` to it, plus
    the next scripted lag if any.  Tests assert on the wait sequence —
    event ordering, deadline-timer instants — and on how the engine
    responds to injected lateness.
    """

    virtual = False

    def __init__(self, lags: Optional[List[float]] = None):
        super().__init__()
        self._now = 0.0
        #: Every instant the engine waited for, in call order.
        self.waits: List[float] = []
        self._lags = list(lags) if lags else []

    def now(self) -> float:
        return self._now

    def wait_until(self, t: float) -> float:
        self.waits.append(t)
        lag = self._lags.pop(0) if self._lags else 0.0
        self._now = max(self._now, t) + lag
        return self.drift.record(self._now - t)


def as_clock(spec: Union[None, str, Clock]) -> Optional[Clock]:
    """Resolve a clock argument: ``None``, ``"sim"``, ``"wall"``, or an
    instance.  ``None`` stays ``None`` (the engine's zero-overhead
    default path); ``"sim"`` returns a :class:`SimClock` (same
    behaviour, explicit object)."""
    if spec is None or isinstance(spec, Clock):
        return spec
    if spec == "sim":
        return SimClock()
    if spec == "wall":
        return WallClock()
    raise ValueError(f"unknown clock {spec!r} (expected 'sim', 'wall', or a Clock)")
