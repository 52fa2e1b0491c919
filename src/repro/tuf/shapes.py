"""Concrete TUF shapes.

These cover every shape the paper uses or motivates:

* :class:`StepTUF` — the classical deadline (Fig. 1(d));
* :class:`LinearTUF` — the linearly decaying TUF used in Section 5.2;
* :class:`PiecewiseLinearTUF` — general non-increasing piecewise-linear
  shapes such as the AWACS track-association TUF (Fig. 1(a));
* :class:`MultiStepTUF` — staircase TUFs such as the plot-correlation /
  track-maintenance constraints of the coastal air defense application
  (Fig. 1(b));
* :class:`ExponentialDecayTUF` and :class:`QuadraticDecayTUF` — smooth
  decaying shapes for the non-step experiments and property tests;
* :class:`TabulatedTUF` — sampled utility curves (e.g. profiled from an
  application), interpolated linearly.
"""

from __future__ import annotations

import math
from typing import List, Sequence, Tuple

from .base import TUF, TUFError

__all__ = [
    "StepTUF",
    "LinearTUF",
    "PiecewiseLinearTUF",
    "MultiStepTUF",
    "ExponentialDecayTUF",
    "QuadraticDecayTUF",
    "TabulatedTUF",
]


class StepTUF(TUF):
    """Binary-valued downward step: ``U(t) = height`` for ``t < deadline``.

    The classical hard/firm deadline as a TUF (paper Fig. 1(d)).  The
    termination time coincides with the deadline: completing later than
    the deadline is worthless *and* expired.
    """

    def __init__(self, height: float, deadline: float):
        if height <= 0.0:
            raise TUFError(f"step height must be > 0, got {height!r}")
        super().__init__(termination=deadline)
        self.height = float(height)

    @property
    def deadline(self) -> float:
        """The step's drop instant (== termination time)."""
        return self.termination

    def _utility(self, t: float) -> float:
        return self.height

    def critical_time(self, nu: float) -> float:
        """For a step TUF ``nu`` can only be 0 or 1 (paper Section 2.2)."""
        nu = self._check_nu(nu)
        if nu not in (0.0, 1.0):
            raise TUFError(f"step TUFs admit nu in {{0, 1}} only, got {nu!r}")
        return self.termination

    def is_non_increasing(self, samples: int = 257) -> bool:
        return True


class LinearTUF(TUF):
    """Linearly decaying utility: ``U(t) = u0 * (1 - t / termination)``.

    Section 5.2 of the paper allocates "a linear TUF to each task, and its
    slope is calculated as U_max / P" — i.e. the utility falls from
    ``u0 = U_max`` at release to 0 at the end of the UAM window ``P``.
    """

    def __init__(self, max_utility: float, termination: float):
        if max_utility <= 0.0:
            raise TUFError(f"max utility must be > 0, got {max_utility!r}")
        super().__init__(termination=termination)
        self._u0 = float(max_utility)

    @property
    def slope(self) -> float:
        """Magnitude of the (negative) utility slope, ``U_max / P``."""
        return self._u0 / self.termination

    def _utility(self, t: float) -> float:
        return self._u0 * (1.0 - t / self.termination)

    def critical_time(self, nu: float) -> float:
        nu = self._check_nu(nu)
        if nu == 0.0:
            return self.termination
        return self.termination * (1.0 - nu)

    def is_non_increasing(self, samples: int = 257) -> bool:
        return True


class PiecewiseLinearTUF(TUF):
    """Non-increasing piecewise-linear TUF through ``(t, u)`` breakpoints.

    ``points`` must start at ``t = 0``, have strictly increasing times and
    non-increasing utilities.  The final breakpoint's time is the
    termination time; its utility applies on the half-open last segment.

    Example — AWACS track association (Fig. 1(a)): full utility until the
    sensor revisit time ``tc``, then a linear drop to zero::

        PiecewiseLinearTUF([(0.0, u), (tc, u), (2 * tc, 0.0)])
    """

    def __init__(self, points: Sequence[Tuple[float, float]]):
        if len(points) < 2:
            raise TUFError("need at least two breakpoints")
        ts = [float(t) for t, _ in points]
        us = [float(u) for _, u in points]
        if ts[0] != 0.0:
            raise TUFError(f"first breakpoint must be at t=0, got {ts[0]!r}")
        for a, b in zip(ts, ts[1:]):
            if b <= a:
                raise TUFError(f"breakpoint times must strictly increase ({a} -> {b})")
        for a, b in zip(us, us[1:]):
            if b > a + 1e-12:
                raise TUFError(f"breakpoint utilities must be non-increasing ({a} -> {b})")
        if us[0] <= 0.0:
            raise TUFError("utility at release must be > 0")
        super().__init__(termination=ts[-1])
        self._ts: List[float] = ts
        self._us: List[float] = us

    @property
    def breakpoints(self) -> List[Tuple[float, float]]:
        return list(zip(self._ts, self._us))

    def _utility(self, t: float) -> float:
        ts, us = self._ts, self._us
        # Find segment [ts[k], ts[k+1]) containing t (linear scan: TUFs are tiny).
        for k in range(len(ts) - 1):
            if t < ts[k + 1]:
                span = ts[k + 1] - ts[k]
                frac = (t - ts[k]) / span
                return us[k] + frac * (us[k + 1] - us[k])
        return us[-1]

    def critical_time(self, nu: float) -> float:
        nu = self._check_nu(nu)
        if nu == 0.0:
            return self.termination
        target = nu * self.max_utility
        ts, us = self._ts, self._us
        if target > us[0]:
            raise TUFError(f"utility bound nu={nu} unattainable even at release")
        # Walk segments; the answer is in the last segment whose start still
        # meets the target.
        result = 0.0
        for k in range(len(ts) - 1):
            u_lo, u_hi = us[k], us[k + 1]
            if u_hi >= target:
                result = ts[k + 1]
                continue
            if u_lo >= target > u_hi:
                frac = (u_lo - target) / (u_lo - u_hi)
                return ts[k] + frac * (ts[k + 1] - ts[k])
            break
        return min(result, self.termination)

    def is_non_increasing(self, samples: int = 257) -> bool:
        return True


class MultiStepTUF(TUF):
    """Staircase of downward steps (Fig. 1(b): plot correlation TUF).

    ``steps`` is a sequence of ``(drop_time, utility_before_drop)`` with
    strictly increasing drop times and strictly decreasing utilities; the
    last drop time is the termination time.

    Example — plot correlation & track maintenance with utilities
    ``Uc_max`` until ``tf`` and ``Um_max`` until ``2 tf``::

        MultiStepTUF([(tf, uc_max), (2 * tf, um_max)])
    """

    def __init__(self, steps: Sequence[Tuple[float, float]]):
        if not steps:
            raise TUFError("need at least one step")
        ts = [float(t) for t, _ in steps]
        us = [float(u) for _, u in steps]
        prev_t = 0.0
        for t in ts:
            if t <= prev_t:
                raise TUFError("step drop times must strictly increase from 0")
            prev_t = t
        for a, b in zip(us, us[1:]):
            if b >= a:
                raise TUFError("step utilities must strictly decrease")
        if us[-1] <= 0.0:
            raise TUFError("all step utilities must be > 0")
        super().__init__(termination=ts[-1])
        self._ts = ts
        self._us = us

    def _utility(self, t: float) -> float:
        for drop_t, u in zip(self._ts, self._us):
            if t < drop_t:
                return u
        return 0.0

    def critical_time(self, nu: float) -> float:
        nu = self._check_nu(nu)
        if nu == 0.0:
            return self.termination
        target = nu * self.max_utility
        result = 0.0
        for drop_t, u in zip(self._ts, self._us):
            if u >= target:
                result = drop_t
        if result == 0.0:
            raise TUFError(f"utility bound nu={nu} unattainable")
        return result

    def is_non_increasing(self, samples: int = 257) -> bool:
        return True


class ExponentialDecayTUF(TUF):
    """Smooth decay ``U(t) = u0 * exp(-t / tau)``, truncated at termination."""

    def __init__(self, max_utility: float, tau: float, termination: float):
        if max_utility <= 0.0:
            raise TUFError(f"max utility must be > 0, got {max_utility!r}")
        if tau <= 0.0:
            raise TUFError(f"decay constant tau must be > 0, got {tau!r}")
        super().__init__(termination=termination)
        self._u0 = float(max_utility)
        self.tau = float(tau)

    def _utility(self, t: float) -> float:
        return self._u0 * math.exp(-t / self.tau)

    def critical_time(self, nu: float) -> float:
        nu = self._check_nu(nu)
        if nu == 0.0:
            return self.termination
        return min(self.termination, -self.tau * math.log(nu))

    def is_non_increasing(self, samples: int = 257) -> bool:
        return True


class QuadraticDecayTUF(TUF):
    """Concave decay ``U(t) = u0 * (1 - (t / termination)^2)``.

    Stays near the maximum longer than the linear TUF, then falls off —
    a common model for control loops whose output degrades slowly at
    first (the "mid-course" phase of the missile-control TUF, Fig. 1(c),
    before its final drop).
    """

    def __init__(self, max_utility: float, termination: float):
        if max_utility <= 0.0:
            raise TUFError(f"max utility must be > 0, got {max_utility!r}")
        super().__init__(termination=termination)
        self._u0 = float(max_utility)

    def _utility(self, t: float) -> float:
        x = t / self.termination
        return self._u0 * (1.0 - x * x)

    def critical_time(self, nu: float) -> float:
        nu = self._check_nu(nu)
        if nu == 0.0:
            return self.termination
        return self.termination * math.sqrt(1.0 - nu)

    def is_non_increasing(self, samples: int = 257) -> bool:
        return True


class TabulatedTUF(PiecewiseLinearTUF):
    """TUF defined by sampled ``utility`` values on a uniform time grid.

    Useful when a utility curve is profiled from an application (QoS
    measurements) rather than specified analytically.  Values must be
    non-increasing; interpolation is linear.
    """

    def __init__(self, values: Sequence[float], termination: float):
        if len(values) < 2:
            raise TUFError("need at least two samples")
        n = len(values)
        step = float(termination) / (n - 1)
        points = [(k * step, float(v)) for k, v in enumerate(values)]
        super().__init__(points)
