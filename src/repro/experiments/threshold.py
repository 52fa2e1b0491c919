"""Utilization phase-transition study.

Gopalakrishnan's sharp-threshold results predict that for many
real-time scheduling problems the probability of "success" — here,
*every task attains its* ``{ν, ρ}`` *assurance within a replication* —
drops from ≈1 to ≈0 across a narrow load band.  This driver locates
and characterises that transition empirically, per scheduler × arrival
shape, on top of the Monte-Carlo campaign machinery:

1. **Coarse sweep** — evaluate ``Pr[assurance met]`` on an even load
   grid over ``[load_lo, load_hi]``.  Each grid point is one
   :func:`~repro.stats.campaign.run_campaign` over *all* schedulers at
   once (shared workloads double as variance reduction across
   schedulers), so the per-replication Bernoulli outcomes come with
   Wilson confidence intervals for free.
2. **Bisection refinement** — per scheduler, bracket the ``p_level``
   (default 0.5) crossing between adjacent grid points and bisect it
   ``refine_iters`` times.  Campaign evaluations are memoised per
   (shape, load) — schedulers whose brackets coincide share them — and
   every evaluation flows through the :class:`~repro.stats.cache.\
RunCache` when given, so re-running a sweep is nearly free.
3. **Characterisation** — the threshold estimate interpolates the
   final bracket; the *confidence band* is Wilson-backed (largest load
   still confidently above ``p_level``, smallest load confidently
   below); the *transition width* spans the interpolated 0.9→0.1
   crossings of the success curve.

:meth:`ThresholdResult.metrics`, :meth:`~ThresholdResult.directions`
and :meth:`~ThresholdResult.meta` feed a ``BENCH_threshold_*.json``
artifact (:func:`repro.artifacts.write_bench_artifact`) so CI's
``check_regression.py`` gate can pin the threshold location — a
scheduler regression that shifts the phase boundary fails the build.  ``repro threshold --smoke`` runs the
2-scheduler × 2-shape mini-sweep CI gates on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from ..arrivals import workload_shape_names
from ..obs import Telemetry

if TYPE_CHECKING:  # runtime import would cycle: stats → experiments → here
    from ..stats.cache import RunCache
    from ..stats.campaign import CampaignConfig, CampaignResult
    from ..stats.estimators import EarlyStopRule

__all__ = [
    "ArrivalShape",
    "ThresholdConfig",
    "ThresholdPoint",
    "ThresholdCurve",
    "ThresholdResult",
    "run_threshold",
    "smoke_config",
]


# ----------------------------------------------------------------------
# Configuration
# ----------------------------------------------------------------------
def _coerce(text: str) -> object:
    """CLI parameter literal → bool / int / float / str."""
    low = text.lower()
    if low in ("true", "false"):
        return low == "true"
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            continue
    return text


@dataclass(frozen=True)
class ArrivalShape:
    """One arrival-registry shape: a name plus factory overrides."""

    name: str
    params: Tuple[Tuple[str, object], ...] = ()

    def __post_init__(self) -> None:
        if self.name not in workload_shape_names():
            raise ValueError(
                f"unknown arrival shape {self.name!r} "
                f"(registered: {', '.join(workload_shape_names())})"
            )

    @classmethod
    def parse(cls, text: str) -> "ArrivalShape":
        """Parse the CLI form ``name`` or ``name:key=val,key=val``."""
        name, _, rest = text.partition(":")
        params: List[Tuple[str, object]] = []
        if rest:
            for item in rest.split(","):
                key, sep, value = item.partition("=")
                if not sep or not key:
                    raise ValueError(
                        f"malformed arrival parameter {item!r} (expected key=value)"
                    )
                params.append((key, _coerce(value)))
        return cls(name=name, params=tuple(params))

    @property
    def label(self) -> str:
        if not self.params:
            return self.name
        rendered = ",".join(f"{k}={v}" for k, v in self.params)
        return f"{self.name}:{rendered}"


@dataclass(frozen=True)
class ThresholdConfig:
    """Everything that defines a phase-transition sweep."""

    schedulers: Tuple[str, ...] = ("EUA*", "EDF")
    shapes: Tuple[ArrivalShape, ...] = (
        ArrivalShape("nhpp-diurnal"),
        ArrivalShape("flash-crowd"),
    )
    #: Load range in *nominal* synthesis units.  UAM thinning admits
    #: fewer jobs than the ⟨a, P⟩ envelope the synthesiser sizes
    #: against, so the internet shapes transition well above nominal
    #: load 1 — the default range brackets that (periodic transitions
    #: below 2, the thinned shapes near 3–4).
    load_lo: float = 0.5
    load_hi: float = 4.5
    coarse_points: int = 9
    refine_iters: int = 3
    n_replications: int = 24
    base_seed: int = 11
    horizon: float = 2.0
    confidence: float = 0.95
    #: Success probability defining "the" threshold (p = 0.5 crossing).
    p_level: float = 0.5
    #: Probability levels whose crossing span defines the transition width.
    width_hi: float = 0.9
    width_lo: float = 0.1
    tuf_shape: str = "step"
    nu: float = 1.0
    rho: float = 0.96
    energy: str = "E1"
    f_max: float = 1000.0
    early_stop: Optional["EarlyStopRule"] = None

    def __post_init__(self) -> None:
        if not self.schedulers:
            raise ValueError("at least one scheduler is required")
        if not self.shapes:
            raise ValueError("at least one arrival shape is required")
        if not (self.load_lo < self.load_hi):
            raise ValueError("load_lo must be < load_hi")
        if self.coarse_points < 2:
            raise ValueError("coarse_points must be >= 2")
        if self.refine_iters < 0:
            raise ValueError("refine_iters must be >= 0")
        if not (0.0 < self.p_level < 1.0):
            raise ValueError("p_level must lie in (0, 1)")
        if not (0.0 < self.width_lo < self.width_hi < 1.0):
            raise ValueError("need 0 < width_lo < width_hi < 1")

    def campaign_config(self, shape: ArrivalShape, load: float) -> "CampaignConfig":
        """The campaign evaluating one (shape, load) sweep point."""
        from ..stats.campaign import CampaignConfig

        return CampaignConfig(
            load=load,
            horizon=self.horizon,
            schedulers=self.schedulers,
            n_replications=self.n_replications,
            base_seed=self.base_seed,
            confidence=self.confidence,
            tuf_shape=self.tuf_shape,
            nu=self.nu,
            rho=self.rho,
            arrival_mode=shape.name,
            arrival_params=shape.params,
            energy=self.energy,
            f_max=self.f_max,
            early_stop=self.early_stop,
        )

    @property
    def coarse_loads(self) -> Tuple[float, ...]:
        step = (self.load_hi - self.load_lo) / (self.coarse_points - 1)
        return tuple(
            round(self.load_lo + i * step, 9) for i in range(self.coarse_points)
        )


def smoke_config() -> ThresholdConfig:
    """The CI mini-sweep: EUA* vs EDF on the two headline internet
    shapes, sized to finish in well under a minute on one core."""
    return ThresholdConfig(
        schedulers=("EUA*", "EDF"),
        shapes=(ArrivalShape("nhpp-diurnal"), ArrivalShape("flash-crowd")),
        load_lo=1.5,
        load_hi=4.5,
        coarse_points=5,
        refine_iters=2,
        n_replications=12,
        horizon=1.0,
    )


# ----------------------------------------------------------------------
# Results
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ThresholdPoint:
    """One evaluated sweep point for one scheduler."""

    load: float
    successes: int
    decided: int
    probability: float
    ci_low: float
    ci_high: float


@dataclass
class ThresholdCurve:
    """One scheduler × shape success curve and its characterisation."""

    scheduler: str
    shape: ArrivalShape
    points: List[ThresholdPoint]
    #: Interpolated load where Pr[assurance met] crosses ``p_level``.
    threshold: float
    #: Wilson-backed load band: still confidently above ``p_level`` at
    #: ``ci_low``; already confidently below at ``ci_high``.
    ci_low: float
    ci_high: float
    #: Load span of the interpolated ``width_hi`` → ``width_lo`` drop.
    width: float


@dataclass
class ThresholdResult:
    """A completed phase-transition sweep."""

    config: ThresholdConfig
    curves: List[ThresholdCurve] = field(default_factory=list)
    n_campaigns: int = 0
    n_simulated: int = 0
    n_cached: int = 0

    def curve(self, scheduler: str, shape_name: str) -> ThresholdCurve:
        for c in self.curves:
            if c.scheduler == scheduler and c.shape.name == shape_name:
                return c
        raise KeyError(f"no curve for {scheduler!r} × {shape_name!r}")

    def rows(self) -> List[Dict[str, object]]:
        """Flat summary rows (scheduler × shape) for reporting."""
        return [
            {
                "scheduler": c.scheduler,
                "shape": c.shape.label,
                "threshold": c.threshold,
                "ci_low": c.ci_low,
                "ci_high": c.ci_high,
                "width": c.width,
            }
            for c in self.curves
        ]

    def metrics(self) -> Dict[str, float]:
        """Flat gate metrics for the BENCH artifact."""
        out: Dict[str, float] = {}
        for c in self.curves:
            key = f"{c.scheduler}|{c.shape.label}"
            out[f"threshold[{key}]"] = c.threshold
            out[f"width[{key}]"] = c.width
        return out

    def directions(self) -> Dict[str, str]:
        """Gate directions: thresholds regress downward (the scheduler
        gives up assurance at lower load), widths regress upward (the
        transition smears)."""
        out: Dict[str, str] = {}
        for key in self.metrics():
            out[key] = "higher" if key.startswith("threshold[") else "lower"
        return out

    def meta(self) -> Dict[str, object]:
        """Sweep provenance recorded beside the BENCH artifact's metrics."""
        return {
            "schedulers": list(self.config.schedulers),
            "shapes": [s.label for s in self.config.shapes],
            "n_replications": self.config.n_replications,
            "base_seed": self.config.base_seed,
            "horizon": self.config.horizon,
            "n_campaigns": self.n_campaigns,
        }


# ----------------------------------------------------------------------
# Characterisation helpers (pure, unit-testable)
# ----------------------------------------------------------------------
def _interpolate_crossing(
    points: List[ThresholdPoint], level: float, lo: float, hi: float
) -> float:
    """Load where the success curve first drops through ``level``,
    linearly interpolated between adjacent evaluated points; clamps to
    the sweep edges when the curve never crosses."""
    if not points:
        return hi
    if points[0].probability < level:
        return lo
    for a, b in zip(points, points[1:]):
        if a.probability >= level > b.probability:
            if a.probability == b.probability:
                return a.load
            frac = (a.probability - level) / (a.probability - b.probability)
            return a.load + frac * (b.load - a.load)
    return hi


def _wilson_band(
    points: List[ThresholdPoint], level: float, lo: float, hi: float
) -> Tuple[float, float]:
    """The load band where the data cannot confidently place the curve
    on either side of ``level``."""
    above = [p.load for p in points if p.ci_low >= level]
    below = [p.load for p in points if p.ci_high < level]
    band_lo = max(above) if above else lo
    band_hi = min(below) if below else hi
    if band_lo > band_hi:  # non-monotone noise: widen, never invert
        band_lo, band_hi = band_hi, band_lo
    return band_lo, band_hi


# ----------------------------------------------------------------------
# The driver
# ----------------------------------------------------------------------
def run_threshold(
    config: ThresholdConfig,
    workers: int = 1,
    cache: Optional["RunCache"] = None,
    telemetry: Optional[Telemetry] = None,
    chunk_size: Optional[int] = None,
    log: Optional[Callable[[str], None]] = None,
) -> ThresholdResult:
    """Run the coarse-sweep + bisection phase-transition study.

    Campaign evaluations are memoised per (shape, load) and shared by
    every scheduler, so the scheduler dimension is free; ``workers`` /
    ``chunk_size`` / ``cache`` / ``telemetry`` pass straight through to
    :func:`~repro.stats.campaign.run_campaign`, inheriting its
    bit-identical-at-any-parallelism determinism contract — the sweep's
    refinement path depends only on campaign aggregates, so the whole
    result is reproducible from (config, base_seed) alone.
    """
    from ..stats.campaign import run_campaign

    result = ThresholdResult(config=config)
    evaluated: Dict[Tuple[ArrivalShape, float], "CampaignResult"] = {}

    def evaluate(shape: ArrivalShape, load: float) -> "CampaignResult":
        load = round(load, 9)
        key = (shape, load)
        if key not in evaluated:
            campaign = run_campaign(
                config.campaign_config(shape, load),
                workers=workers,
                cache=cache,
                telemetry=telemetry,
                chunk_size=chunk_size,
            )
            evaluated[key] = campaign
            result.n_campaigns += 1
            result.n_simulated += campaign.n_simulated
            result.n_cached += campaign.n_cached
            if log is not None:
                probs = ", ".join(
                    f"{s}={campaign.schedulers[s].assurance_probability:.2f}"
                    for s in config.schedulers
                )
                log(f"  [{shape.label}] load {load:.4f}: {probs}")
        return evaluated[key]

    def probability(shape: ArrivalShape, load: float, sched: str) -> float:
        return evaluate(shape, load).schedulers[sched].assurance_probability

    for shape in config.shapes:
        if log is not None:
            log(f"coarse sweep over {shape.label} "
                f"({config.coarse_points} loads x {config.n_replications} reps)")
        for load in config.coarse_loads:
            evaluate(shape, load)
        for sched in config.schedulers:
            # Bracket the p_level crossing on the coarse grid.
            loads = list(config.coarse_loads)
            bracket: Optional[Tuple[float, float]] = None
            for a, b in zip(loads, loads[1:]):
                if (
                    probability(shape, a, sched) >= config.p_level
                    and probability(shape, b, sched) < config.p_level
                ):
                    bracket = (a, b)
                    break
            if bracket is not None:
                lo, hi = bracket
                for _ in range(config.refine_iters):
                    mid = round(0.5 * (lo + hi), 9)
                    if mid in (lo, hi):  # resolution exhausted
                        break
                    if probability(shape, mid, sched) >= config.p_level:
                        lo = mid
                    else:
                        hi = mid

            # Assemble the full evaluated curve for this scheduler.
            shape_loads = sorted(ld for (sh, ld) in evaluated if sh == shape)
            points: List[ThresholdPoint] = []
            for load in shape_loads:
                stats = evaluated[(shape, load)].schedulers[sched]
                ci_lo, ci_hi = stats.assurance_interval(config.confidence)
                points.append(
                    ThresholdPoint(
                        load=load,
                        successes=stats.replication_successes,
                        decided=stats.replication_decided,
                        probability=stats.assurance_probability,
                        ci_low=ci_lo,
                        ci_high=ci_hi,
                    )
                )
            threshold = _interpolate_crossing(
                points, config.p_level, config.load_lo, config.load_hi
            )
            band_lo, band_hi = _wilson_band(
                points, config.p_level, config.load_lo, config.load_hi
            )
            hi_cross = _interpolate_crossing(
                points, config.width_hi, config.load_lo, config.load_hi
            )
            lo_cross = _interpolate_crossing(
                points, config.width_lo, config.load_lo, config.load_hi
            )
            result.curves.append(
                ThresholdCurve(
                    scheduler=sched,
                    shape=shape,
                    points=points,
                    threshold=threshold,
                    ci_low=band_lo,
                    ci_high=band_hi,
                    width=max(0.0, lo_cross - hi_cross),
                )
            )
            if log is not None:
                c = result.curves[-1]
                log(
                    f"  {sched} x {shape.label}: threshold {c.threshold:.3f} "
                    f"in [{c.ci_low:.3f}, {c.ci_high:.3f}], width {c.width:.3f}"
                )
    return result
