"""Arrival-time generators.

Every generator produces a sorted list of absolute arrival times over
``[0, horizon)`` and declares the :class:`~repro.arrivals.uam.UAMSpec` it
honours, so simulations can assert compliance.  All randomness flows
through an explicit :class:`numpy.random.Generator`.
"""

from __future__ import annotations

import math
import sys
import warnings
from abc import ABC, abstractmethod
from typing import Dict, List, Optional

import numpy as np

from .uam import UAMSpec, UAMError, is_uam_compliant, thin_to_uam

__all__ = [
    "ArrivalGenerator",
    "UnseededRNGWarning",
    "PeriodicArrivals",
    "JitteredPeriodicArrivals",
    "SporadicArrivals",
    "BurstUAMArrivals",
    "ScatteredUAMArrivals",
    "PoissonUAMArrivals",
    "MMPPUAMArrivals",
    "NHPPArrivals",
    "FlashCrowdArrivals",
    "ParetoArrivals",
]


class UnseededRNGWarning(UserWarning):
    """A stochastic generator ran without an explicit ``Generator``.

    The fallback ``np.random.default_rng()`` is seeded from OS entropy,
    so the resulting stream can never be reproduced.  That is fine for
    interactive exploration but silently breaks the campaign
    determinism contract (bit-identical replications under a fixed
    seed), which is why every library path — ``WorkloadSpec.build``,
    ``materialize``, the fuzzer — passes an explicit rng and this
    warning only ever fires on direct interactive use.
    """


class ArrivalGenerator(ABC):
    """Produces arrival times for one task and knows its UAM envelope."""

    #: The UAM specification all generated sequences satisfy.
    spec: UAMSpec

    @abstractmethod
    def generate(self, horizon: float, rng: Optional[np.random.Generator] = None) -> List[float]:
        """Sorted arrival times in ``[0, horizon)``."""

    def generate_checked(
        self, horizon: float, rng: Optional[np.random.Generator] = None
    ) -> List[float]:
        """Generate and assert UAM compliance (defence in depth)."""
        times = self.generate(horizon, rng)
        if not is_uam_compliant(times, self.spec):
            raise UAMError(f"{type(self).__name__} produced a non-compliant sequence")
        return times

    def to_config(self) -> Dict[str, object]:
        """JSON-ready constructor config, round-trippable through
        :func:`repro.arrivals.create_arrival_generator`.

        The returned dict carries the registry ``name`` plus absolute
        parameters (never spec-relative defaults), so
        ``create_arrival_generator(**cfg)`` rebuilds a generator whose
        streams are bit-identical under the same rng — this is what
        lets arrival shapes participate in ``RunCache`` identity.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not implement to_config()"
        )

    @staticmethod
    def _rng(rng: Optional[np.random.Generator]) -> np.random.Generator:
        if rng is None:
            warnings.warn(
                "arrival generation without an explicit rng is not "
                "reproducible; pass np.random.default_rng(seed) "
                "(campaign paths always do)",
                UnseededRNGWarning,
                stacklevel=_external_stacklevel(),
            )
            return np.random.default_rng()
        return rng


def _external_stacklevel() -> int:
    """Stacklevel (relative to the caller of this helper) of the first
    frame *outside* ``repro.arrivals``.

    ``_rng`` is reached through a varying number of in-package wrappers
    — ``generate`` directly, but also ``generate_checked`` and the
    shape-registry constructors — so a fixed ``stacklevel`` attributes
    the :class:`UnseededRNGWarning` to library internals on all but one
    path.  Walking the stack keeps the warning pointing at the caller
    that actually forgot the rng, whichever entry point it used.
    """
    level = 2  # warn()'s caller, i.e. whoever called _rng
    frame = sys._getframe(2)  # the same frame, seen from here
    while frame is not None and frame.f_globals.get("__name__", "").startswith(
        "repro.arrivals"
    ):
        level += 1
        frame = frame.f_back
    return level


class PeriodicArrivals(ArrivalGenerator):
    """Strictly periodic arrivals — the UAM special case ``⟨1, P⟩``."""

    def __init__(self, period: float, phase: float = 0.0):
        if period <= 0.0:
            raise UAMError(f"period must be > 0, got {period!r}")
        if phase < 0.0:
            raise UAMError(f"phase must be >= 0, got {phase!r}")
        self.period = float(period)
        self.phase = float(phase)
        self.spec = UAMSpec(1, self.period)

    def generate(self, horizon: float, rng: Optional[np.random.Generator] = None) -> List[float]:
        if horizon <= self.phase:
            return []
        n = int(np.ceil((horizon - self.phase) / self.period))
        times = self.phase + self.period * np.arange(n)
        return [float(t) for t in times if t < horizon]

    def to_config(self) -> Dict[str, object]:
        return {"name": "periodic", "period": self.period, "phase": self.phase}


class JitteredPeriodicArrivals(ArrivalGenerator):
    """Periodic releases delayed by bounded random jitter.

    With jitter bound ``J < P`` the stream satisfies ``⟨1, P - J⟩``:
    consecutive arrivals are at least ``P - J`` apart.
    """

    def __init__(self, period: float, jitter: float, phase: float = 0.0):
        if period <= 0.0:
            raise UAMError(f"period must be > 0, got {period!r}")
        if not (0.0 <= jitter < period):
            raise UAMError(f"jitter must lie in [0, period), got {jitter!r}")
        self.period = float(period)
        self.jitter = float(jitter)
        self.phase = float(phase)
        self.spec = UAMSpec(1, self.period - self.jitter) if jitter > 0 else UAMSpec(1, self.period)

    def generate(self, horizon: float, rng: Optional[np.random.Generator] = None) -> List[float]:
        rng = self._rng(rng)
        times: List[float] = []
        k = 0
        while True:
            base = self.phase + k * self.period
            if base >= horizon:
                break
            t = base + (rng.uniform(0.0, self.jitter) if self.jitter > 0.0 else 0.0)
            if t < horizon:
                times.append(float(t))
            k += 1
        return sorted(times)

    def to_config(self) -> Dict[str, object]:
        return {
            "name": "jittered",
            "period": self.period,
            "jitter": self.jitter,
            "phase": self.phase,
        }


class SporadicArrivals(ArrivalGenerator):
    """Sporadic arrivals: exponential gaps floored at a minimum separation.

    Satisfies ``⟨1, min_interarrival⟩``.
    """

    def __init__(self, min_interarrival: float, mean_interarrival: float):
        if min_interarrival <= 0.0:
            raise UAMError(f"min interarrival must be > 0, got {min_interarrival!r}")
        if mean_interarrival < min_interarrival:
            raise UAMError("mean interarrival must be >= the minimum separation")
        self.min_interarrival = float(min_interarrival)
        self.mean_interarrival = float(mean_interarrival)
        self.spec = UAMSpec(1, self.min_interarrival)

    def generate(self, horizon: float, rng: Optional[np.random.Generator] = None) -> List[float]:
        rng = self._rng(rng)
        extra_mean = self.mean_interarrival - self.min_interarrival
        times: List[float] = []
        t = 0.0
        while t < horizon:
            times.append(t)
            gap = self.min_interarrival
            if extra_mean > 0.0:
                gap += float(rng.exponential(extra_mean))
            t += gap
        return times

    def to_config(self) -> Dict[str, object]:
        return {
            "name": "sporadic",
            "min_interarrival": self.min_interarrival,
            "mean_interarrival": self.mean_interarrival,
        }


class BurstUAMArrivals(ArrivalGenerator):
    """The UAM adversary: bursts of up to ``a`` simultaneous arrivals.

    Each window ``[kP, (k+1)P)`` opens with a burst of ``burst_size``
    simultaneous arrivals at its start (``burst_size = a`` by default, or
    drawn uniformly from ``[1, a]`` when ``randomize=True``).  Placing
    bursts exactly ``P`` apart is the densest pattern ``⟨a, P⟩`` admits —
    this is the "stronger adversary" the paper stresses and the pattern
    used for the Figure 3 study.
    """

    def __init__(self, spec: UAMSpec, randomize: bool = False, phase: float = 0.0):
        self.spec = spec
        self.randomize = bool(randomize)
        self.phase = float(phase)

    def generate(self, horizon: float, rng: Optional[np.random.Generator] = None) -> List[float]:
        rng = self._rng(rng)
        a, P = self.spec.max_arrivals, self.spec.window
        times: List[float] = []
        k = 0
        while True:
            t = self.phase + k * P
            if t >= horizon:
                break
            size = int(rng.integers(1, a + 1)) if self.randomize else a
            times.extend([float(t)] * size)
            k += 1
        return times

    def to_config(self) -> Dict[str, object]:
        return {
            "name": "burst",
            "a": self.spec.max_arrivals,
            "window": self.spec.window,
            "randomize": self.randomize,
            "phase": self.phase,
        }


class ScatteredUAMArrivals(ArrivalGenerator):
    """Up to ``a`` arrivals per window at *unpredictable* instants.

    For each window ``[kP, (k+1)P)`` draws ``a`` offsets uniformly over
    ``[0, spread·P)`` and then thins the merged stream to ``⟨a, P⟩``
    compliance (adjacent windows' draws can otherwise cluster across the
    boundary).  Unlike :class:`BurstUAMArrivals` — whose synchronised
    bursts a scheduler can fully anticipate — scattered arrivals defeat
    slack estimation, which is the mechanism behind the paper's Figure 3
    (energy rises with ``a`` during underloads).
    """

    def __init__(self, spec: UAMSpec, spread: float = 1.0, phase: float = 0.0):
        if not (0.0 < spread <= 1.0):
            raise UAMError(f"spread must lie in (0, 1], got {spread!r}")
        self.spec = spec
        self.spread = float(spread)
        self.phase = float(phase)

    def generate(self, horizon: float, rng: Optional[np.random.Generator] = None) -> List[float]:
        rng = self._rng(rng)
        a, P = self.spec.max_arrivals, self.spec.window
        candidates: List[float] = []
        k = 0
        while True:
            start = self.phase + k * P
            if start >= horizon:
                break
            offsets = rng.uniform(0.0, self.spread * P, size=a)
            candidates.extend(float(start + o) for o in offsets if start + o < horizon)
            k += 1
        candidates.sort()
        return thin_to_uam(candidates, self.spec)

    def to_config(self) -> Dict[str, object]:
        return {
            "name": "scattered",
            "a": self.spec.max_arrivals,
            "window": self.spec.window,
            "spread": self.spread,
            "phase": self.phase,
        }


class PoissonUAMArrivals(ArrivalGenerator):
    """Poisson arrivals thinned to satisfy a UAM envelope.

    Models an uncontrolled aperiodic source passed through UAM admission
    control: arrivals are Poisson with the given rate; any arrival that
    would overflow ``⟨a, P⟩`` is dropped (see
    :func:`repro.arrivals.uam.thin_to_uam`).
    """

    def __init__(self, spec: UAMSpec, rate: float):
        if rate <= 0.0:
            raise UAMError(f"rate must be > 0, got {rate!r}")
        self.spec = spec
        self.rate = float(rate)

    def generate(self, horizon: float, rng: Optional[np.random.Generator] = None) -> List[float]:
        rng = self._rng(rng)
        n_expected = self.rate * horizon
        # Draw gaps until the horizon is passed.
        times: List[float] = []
        t = 0.0
        # Pre-draw in blocks for efficiency.
        block = max(16, int(n_expected * 1.5) + 8)
        while t < horizon:
            for gap in rng.exponential(1.0 / self.rate, size=block):
                t += float(gap)
                if t >= horizon:
                    break
                times.append(t)
        return thin_to_uam(times, self.spec)

    def to_config(self) -> Dict[str, object]:
        return {
            "name": "poisson",
            "a": self.spec.max_arrivals,
            "window": self.spec.window,
            "rate": self.rate,
        }


class MMPPUAMArrivals(ArrivalGenerator):
    """Markov-modulated Poisson arrivals admitted through a UAM envelope.

    A two-state on/off source: in the *burst* state arrivals are Poisson
    at ``burst_rate``; in the *quiet* state at ``quiet_rate`` (often 0).
    State holding times are exponential.  The merged stream is thinned
    to the declared ``⟨a, P⟩`` spec, producing realistic correlated
    burstiness (alarm showers, interrupt storms) *within* the envelope —
    a sharper stress for slack estimation than memoryless Poisson.
    """

    def __init__(
        self,
        spec: UAMSpec,
        burst_rate: float,
        quiet_rate: float = 0.0,
        mean_burst_duration: float = 1.0,
        mean_quiet_duration: float = 1.0,
    ):
        if burst_rate <= 0.0:
            raise UAMError(f"burst rate must be > 0, got {burst_rate!r}")
        if quiet_rate < 0.0:
            raise UAMError(f"quiet rate must be >= 0, got {quiet_rate!r}")
        if mean_burst_duration <= 0.0 or mean_quiet_duration <= 0.0:
            raise UAMError("state durations must be > 0")
        self.spec = spec
        self.burst_rate = float(burst_rate)
        self.quiet_rate = float(quiet_rate)
        self.mean_burst_duration = float(mean_burst_duration)
        self.mean_quiet_duration = float(mean_quiet_duration)

    def generate(self, horizon: float, rng: Optional[np.random.Generator] = None) -> List[float]:
        rng = self._rng(rng)
        times: List[float] = []
        t = 0.0
        bursting = bool(rng.integers(0, 2))
        while t < horizon:
            duration = float(
                rng.exponential(
                    self.mean_burst_duration if bursting else self.mean_quiet_duration
                )
            )
            end = min(horizon, t + duration)
            rate = self.burst_rate if bursting else self.quiet_rate
            if rate > 0.0:
                s = t
                while True:
                    s += float(rng.exponential(1.0 / rate))
                    if s >= end:
                        break
                    times.append(s)
            t = end
            bursting = not bursting
        return thin_to_uam(times, self.spec)

    def to_config(self) -> Dict[str, object]:
        return {
            "name": "mmpp",
            "a": self.spec.max_arrivals,
            "window": self.spec.window,
            "burst_rate": self.burst_rate,
            "quiet_rate": self.quiet_rate,
            "mean_burst_duration": self.mean_burst_duration,
            "mean_quiet_duration": self.mean_quiet_duration,
        }


class NHPPArrivals(ArrivalGenerator):
    """Non-homogeneous Poisson arrivals with diurnal peaks, admitted
    through a UAM envelope.

    The intensity is a periodic rate function with a Gaussian bump once
    per ``cycle`` (the "day"): ``λ(t) = base_rate + (peak_rate −
    base_rate) · exp(−d(t)² / 2w²)`` where ``d(t)`` is the circular
    distance of ``t mod cycle`` from the peak position ``peak_frac ·
    cycle`` and ``w = peak_width · cycle``.  Sampling uses the
    Lewis–Shedler thinning algorithm: homogeneous candidates at
    ``peak_rate`` are accepted with probability ``λ(t) / peak_rate``,
    then the stream passes :func:`~repro.arrivals.uam.thin_to_uam` so
    the declared ``⟨a, P⟩`` spec — and hence the paper's assurances —
    still holds.  With ``peak_rate`` above the envelope's ``a / P`` the
    diurnal crest saturates the UAM budget while troughs run far below
    it, which is exactly the internet-facing load shape (request waves
    following the day) the threshold study sweeps.
    """

    def __init__(
        self,
        spec: UAMSpec,
        base_rate: float,
        peak_rate: float,
        cycle: float,
        peak_frac: float = 0.5,
        peak_width: float = 0.1,
    ):
        if not (peak_rate > 0.0):
            raise UAMError(f"peak rate must be > 0, got {peak_rate!r}")
        if not (0.0 <= base_rate <= peak_rate):
            raise UAMError(
                f"base rate must lie in [0, peak_rate], got {base_rate!r}"
            )
        if not (cycle > 0.0):
            raise UAMError(f"cycle must be > 0, got {cycle!r}")
        if not (0.0 <= peak_frac <= 1.0):
            raise UAMError(f"peak_frac must lie in [0, 1], got {peak_frac!r}")
        if not (0.0 < peak_width <= 1.0):
            raise UAMError(f"peak_width must lie in (0, 1], got {peak_width!r}")
        self.spec = spec
        self.base_rate = float(base_rate)
        self.peak_rate = float(peak_rate)
        self.cycle = float(cycle)
        self.peak_frac = float(peak_frac)
        self.peak_width = float(peak_width)

    def rate(self, t: float) -> float:
        """The diurnal intensity ``λ(t)`` (jobs per second)."""
        phase = (t / self.cycle) % 1.0
        d = abs(phase - self.peak_frac)
        d = min(d, 1.0 - d)  # circular distance in cycle fractions
        bump = math.exp(-0.5 * (d / self.peak_width) ** 2)
        return self.base_rate + (self.peak_rate - self.base_rate) * bump

    def generate(self, horizon: float, rng: Optional[np.random.Generator] = None) -> List[float]:
        rng = self._rng(rng)
        times: List[float] = []
        t = 0.0
        # Lewis–Shedler: candidate process at the majorant peak_rate,
        # accept each candidate with probability rate(t) / peak_rate.
        while True:
            t += float(rng.exponential(1.0 / self.peak_rate))
            if t >= horizon:
                break
            if float(rng.random()) * self.peak_rate <= self.rate(t):
                times.append(t)
        return thin_to_uam(times, self.spec)

    def to_config(self) -> Dict[str, object]:
        return {
            "name": "nhpp-diurnal",
            "a": self.spec.max_arrivals,
            "window": self.spec.window,
            "base_rate": self.base_rate,
            "peak_rate": self.peak_rate,
            "cycle": self.cycle,
            "peak_frac": self.peak_frac,
            "peak_width": self.peak_width,
        }


class FlashCrowdArrivals(ArrivalGenerator):
    """Flash-crowd traffic: a Poisson baseline with superimposed burst
    windows, admitted through a UAM envelope.

    Quiet stretches (exponential with mean ``mean_time_between``) carry
    Poisson arrivals at ``base_rate``; each is followed by a burst
    window of fixed length ``burst_duration`` during which the rate
    jumps to ``base_rate · burst_factor`` (the "slashdotting").  Unlike
    :class:`MMPPUAMArrivals` the burst episodes have deterministic
    length and a multiplicative intensity, matching the flash-crowd
    models used for CDN/load-balancer studies.  The merged stream is
    thinned to ``⟨a, P⟩``, so bursts saturate the UAM budget for their
    duration — the hardest admissible pattern short of the synchronised
    :class:`BurstUAMArrivals` adversary, but at *unpredictable* epochs.
    """

    def __init__(
        self,
        spec: UAMSpec,
        base_rate: float,
        burst_factor: float = 8.0,
        burst_duration: float = 1.0,
        mean_time_between: float = 4.0,
    ):
        if not (base_rate > 0.0):
            raise UAMError(f"base rate must be > 0, got {base_rate!r}")
        if not (burst_factor >= 1.0):
            raise UAMError(f"burst factor must be >= 1, got {burst_factor!r}")
        if not (burst_duration > 0.0):
            raise UAMError(f"burst duration must be > 0, got {burst_duration!r}")
        if not (mean_time_between > 0.0):
            raise UAMError(
                f"mean time between bursts must be > 0, got {mean_time_between!r}"
            )
        self.spec = spec
        self.base_rate = float(base_rate)
        self.burst_factor = float(burst_factor)
        self.burst_duration = float(burst_duration)
        self.mean_time_between = float(mean_time_between)

    @staticmethod
    def _poisson_segment(
        times: List[float],
        rng: np.random.Generator,
        start: float,
        end: float,
        rate: float,
    ) -> None:
        s = start
        while True:
            s += float(rng.exponential(1.0 / rate))
            if s >= end:
                break
            times.append(s)

    def generate(self, horizon: float, rng: Optional[np.random.Generator] = None) -> List[float]:
        rng = self._rng(rng)
        times: List[float] = []
        t = 0.0
        while t < horizon:
            quiet_end = min(horizon, t + float(rng.exponential(self.mean_time_between)))
            self._poisson_segment(times, rng, t, quiet_end, self.base_rate)
            t = quiet_end
            if t >= horizon:
                break
            burst_end = min(horizon, t + self.burst_duration)
            self._poisson_segment(
                times, rng, t, burst_end, self.base_rate * self.burst_factor
            )
            t = burst_end
        return thin_to_uam(times, self.spec)

    def to_config(self) -> Dict[str, object]:
        return {
            "name": "flash-crowd",
            "a": self.spec.max_arrivals,
            "window": self.spec.window,
            "base_rate": self.base_rate,
            "burst_factor": self.burst_factor,
            "burst_duration": self.burst_duration,
            "mean_time_between": self.mean_time_between,
        }


class ParetoArrivals(ArrivalGenerator):
    """Heavy-tailed (Pareto) inter-arrival gaps admitted through a UAM
    envelope.

    Gaps follow a Pareto Type I law with tail index ``alpha`` and scale
    ``x_min`` (``gap = x_min · U^{-1/alpha}``): most gaps sit near
    ``x_min`` — so the thinner clips local pile-ups against ``⟨a, P⟩``
    — while occasional enormous gaps produce the long silent stretches
    characteristic of self-similar internet traffic (for ``alpha < 2``
    the gap variance is infinite).  The mean gap is ``x_min · alpha /
    (alpha − 1)`` for ``alpha > 1`` and infinite otherwise.
    """

    def __init__(self, spec: UAMSpec, alpha: float = 1.5, x_min: float = 1.0):
        if not (alpha > 0.0):
            raise UAMError(f"alpha must be > 0, got {alpha!r}")
        if not (x_min > 0.0):
            raise UAMError(f"x_min must be > 0, got {x_min!r}")
        self.spec = spec
        self.alpha = float(alpha)
        self.x_min = float(x_min)

    def generate(self, horizon: float, rng: Optional[np.random.Generator] = None) -> List[float]:
        rng = self._rng(rng)
        times: List[float] = []
        t = 0.0
        while True:
            # numpy's pareto() samples the Lomax law (Pareto minus 1).
            t += self.x_min * (1.0 + float(rng.pareto(self.alpha)))
            if t >= horizon:
                break
            times.append(t)
        return thin_to_uam(times, self.spec)

    def to_config(self) -> Dict[str, object]:
        return {
            "name": "pareto",
            "a": self.spec.max_arrivals,
            "window": self.spec.window,
            "alpha": self.alpha,
            "x_min": self.x_min,
        }
