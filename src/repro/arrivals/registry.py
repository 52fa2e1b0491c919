"""A registry of named, config-constructible arrival generators.

Mirrors :mod:`repro.sched.registry`: every shape has a string key and a
factory so workloads, campaigns, the fuzzer and the CLI can all build
arrival processes from plain data (``name`` + keyword params) instead
of hard-coded constructor calls.  Two construction styles compose:

*Spec-relative* — give the factory the task's declared
:class:`~repro.arrivals.uam.UAMSpec` and let defaults scale off it
(``create_arrival_generator("poisson", spec=spec)`` reproduces the
workload synthesiser's historical ``rate = 2 a / P`` choice exactly).
Every registered shape is constructible this way;
:func:`workload_shape_names` lists them, and they are what
``synthesize_taskset`` and the fuzzer's registry strata accept.

*Absolute* — pass every parameter explicitly, as produced by
:meth:`~repro.arrivals.generators.ArrivalGenerator.to_config`.  The
round trip ``generator_from_config(generator_config(g))`` rebuilds a
generator whose streams are bit-identical under the same rng, which is
what lets arrival configs participate in ``RunCache`` identity and in
campaign configs (see ``CampaignConfig.arrival_params``).

Behaviour preservation is load-bearing: for the four legacy workload
modes (``periodic`` / ``burst`` / ``scattered`` / ``poisson``) the
spec-relative factories below construct byte-identical generators to
the pre-registry hard-coded calls — the golden traces and BENCH
aggregates pin this, and ``tests/arrivals/test_registry.py`` pins the
constructor equivalence directly.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Mapping, Optional

from .generators import (
    ArrivalGenerator,
    BurstUAMArrivals,
    FlashCrowdArrivals,
    JitteredPeriodicArrivals,
    MMPPUAMArrivals,
    NHPPArrivals,
    ParetoArrivals,
    PeriodicArrivals,
    PoissonUAMArrivals,
    ScatteredUAMArrivals,
    SporadicArrivals,
)
from .uam import UAMError, UAMSpec

__all__ = [
    "register_arrival_generator",
    "create_arrival_generator",
    "workload_shape_names",
    "generator_config",
    "generator_from_config",
]

#: name → factory(spec, **params)
_REGISTRY: Dict[str, Callable[..., ArrivalGenerator]] = {}


def register_arrival_generator(
    name: str,
    factory: Optional[Callable[..., ArrivalGenerator]] = None,
):
    """Register ``factory`` under ``name`` (usable as a decorator).

    ``factory(spec, **params)`` must return an
    :class:`~repro.arrivals.generators.ArrivalGenerator` whose defaults
    scale off ``spec``.  Duplicate names are an error — shadow
    registration would silently change campaign identity.
    """

    def _register(fn: Callable[..., ArrivalGenerator]):
        if name in _REGISTRY:
            raise ValueError(f"arrival generator {name!r} is already registered")
        _REGISTRY[name] = fn
        return fn

    if factory is not None:
        return _register(factory)
    return _register


def workload_shape_names() -> List[str]:
    """Registered shape names (sorted) — the valid ``arrival_mode``
    values for ``synthesize_taskset``, campaign configs and the
    fuzzer's registry strata."""
    return sorted(_REGISTRY)


def create_arrival_generator(
    name: str,
    *,
    spec: Optional[UAMSpec] = None,
    a: Optional[int] = None,
    window: Optional[float] = None,
    **params: object,
) -> ArrivalGenerator:
    """Build a registered generator by name.

    The UAM envelope comes either from ``spec`` or from the scalar pair
    ``a``/``window`` (the form :meth:`to_config` emits, so JSON configs
    round-trip without constructing a :class:`UAMSpec` first).
    """
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise UAMError(
            f"unknown arrival generator {name!r} "
            f"(registered: {', '.join(workload_shape_names())})"
        ) from None
    if spec is None and a is not None and window is not None:
        spec = UAMSpec(int(a), float(window))
    elif spec is not None and (a is not None or window is not None):
        raise UAMError("pass either spec or the a/window pair, not both")
    return factory(spec, **params)


def generator_config(generator: ArrivalGenerator) -> Dict[str, object]:
    """``generator.to_config()`` — a JSON-ready dict with the registry
    ``name`` key, round-trippable through :func:`generator_from_config`."""
    return generator.to_config()


def generator_from_config(config: Mapping[str, object]) -> ArrivalGenerator:
    """Rebuild a generator from a :func:`generator_config` dict."""
    cfg = dict(config)
    try:
        name = str(cfg.pop("name"))
    except KeyError:
        raise UAMError("generator config must carry a 'name' key") from None
    return create_arrival_generator(name, **cfg)


# ----------------------------------------------------------------------
# Built-in shapes
# ----------------------------------------------------------------------
def _require_spec(spec: Optional[UAMSpec], name: str) -> UAMSpec:
    if spec is None:
        raise UAMError(f"arrival shape {name!r} needs a UAM spec (or a/window)")
    return spec


@register_arrival_generator("periodic")
def _make_periodic(
    spec: Optional[UAMSpec],
    period: Optional[float] = None,
    phase: float = 0.0,
) -> PeriodicArrivals:
    if period is None:
        period = _require_spec(spec, "periodic").window
    return PeriodicArrivals(period, phase=phase)


@register_arrival_generator("jittered")
def _make_jittered(
    spec: Optional[UAMSpec],
    period: Optional[float] = None,
    jitter: Optional[float] = None,
    jitter_frac: float = 0.25,
    phase: float = 0.0,
) -> JitteredPeriodicArrivals:
    if period is None:
        period = _require_spec(spec, "jittered").window
    if jitter is None:
        jitter = jitter_frac * period
    return JitteredPeriodicArrivals(period, jitter, phase=phase)


@register_arrival_generator("sporadic")
def _make_sporadic(
    spec: Optional[UAMSpec],
    min_interarrival: Optional[float] = None,
    mean_interarrival: Optional[float] = None,
    mean_factor: float = 2.0,
) -> SporadicArrivals:
    if min_interarrival is None:
        s = _require_spec(spec, "sporadic")
        # Rate-equivalent minimum separation: a arrivals per window.
        min_interarrival = s.window / s.max_arrivals
    if mean_interarrival is None:
        mean_interarrival = mean_factor * min_interarrival
    return SporadicArrivals(min_interarrival, mean_interarrival)


@register_arrival_generator("burst")
def _make_burst(
    spec: Optional[UAMSpec],
    randomize: bool = False,
    phase: float = 0.0,
) -> BurstUAMArrivals:
    return BurstUAMArrivals(_require_spec(spec, "burst"), randomize=randomize, phase=phase)


@register_arrival_generator("scattered")
def _make_scattered(
    spec: Optional[UAMSpec],
    spread: float = 1.0,
    phase: float = 0.0,
) -> ScatteredUAMArrivals:
    return ScatteredUAMArrivals(_require_spec(spec, "scattered"), spread=spread, phase=phase)


@register_arrival_generator("poisson")
def _make_poisson(
    spec: Optional[UAMSpec],
    rate: Optional[float] = None,
    rel_rate: float = 2.0,
) -> PoissonUAMArrivals:
    s = _require_spec(spec, "poisson")
    if rate is None:
        # Left-associative on purpose: (rel_rate · a) / P equals the
        # historical ``2.0 * a / window`` to the last bit, which the
        # golden traces pin.
        rate = rel_rate * s.max_arrivals / s.window
    return PoissonUAMArrivals(s, rate)


@register_arrival_generator("mmpp")
def _make_mmpp(
    spec: Optional[UAMSpec],
    burst_rate: Optional[float] = None,
    quiet_rate: Optional[float] = None,
    mean_burst_duration: Optional[float] = None,
    mean_quiet_duration: Optional[float] = None,
    rel_burst_rate: float = 4.0,
    rel_quiet_rate: float = 0.25,
) -> MMPPUAMArrivals:
    s = _require_spec(spec, "mmpp")
    if burst_rate is None:
        burst_rate = rel_burst_rate * s.max_arrivals / s.window
    if quiet_rate is None:
        quiet_rate = rel_quiet_rate * s.max_arrivals / s.window
    if mean_burst_duration is None:
        mean_burst_duration = s.window
    if mean_quiet_duration is None:
        mean_quiet_duration = s.window
    return MMPPUAMArrivals(
        s,
        burst_rate,
        quiet_rate=quiet_rate,
        mean_burst_duration=mean_burst_duration,
        mean_quiet_duration=mean_quiet_duration,
    )


@register_arrival_generator("nhpp-diurnal")
def _make_nhpp_diurnal(
    spec: Optional[UAMSpec],
    base_rate: Optional[float] = None,
    peak_rate: Optional[float] = None,
    cycle: Optional[float] = None,
    peak_frac: float = 0.5,
    peak_width: float = 0.1,
    rel_base_rate: float = 0.5,
    rel_peak_rate: float = 4.0,
    cycle_windows: float = 8.0,
) -> NHPPArrivals:
    s = _require_spec(spec, "nhpp-diurnal")
    if peak_rate is None:
        peak_rate = rel_peak_rate * s.max_arrivals / s.window
    if base_rate is None:
        base_rate = rel_base_rate * s.max_arrivals / s.window
    if cycle is None:
        cycle = cycle_windows * s.window
    return NHPPArrivals(
        s,
        base_rate,
        peak_rate,
        cycle,
        peak_frac=peak_frac,
        peak_width=peak_width,
    )


@register_arrival_generator("flash-crowd")
def _make_flash_crowd(
    spec: Optional[UAMSpec],
    base_rate: Optional[float] = None,
    burst_factor: float = 8.0,
    burst_duration: Optional[float] = None,
    mean_time_between: Optional[float] = None,
    rel_base_rate: float = 0.5,
    burst_windows: float = 1.0,
    gap_windows: float = 6.0,
) -> FlashCrowdArrivals:
    s = _require_spec(spec, "flash-crowd")
    if base_rate is None:
        base_rate = rel_base_rate * s.max_arrivals / s.window
    if burst_duration is None:
        burst_duration = burst_windows * s.window
    if mean_time_between is None:
        mean_time_between = gap_windows * s.window
    return FlashCrowdArrivals(
        s,
        base_rate,
        burst_factor=burst_factor,
        burst_duration=burst_duration,
        mean_time_between=mean_time_between,
    )


@register_arrival_generator("pareto")
def _make_pareto(
    spec: Optional[UAMSpec],
    alpha: float = 1.5,
    x_min: Optional[float] = None,
    rel_rate: float = 2.0,
) -> ParetoArrivals:
    s = _require_spec(spec, "pareto")
    if x_min is None:
        if alpha <= 1.0:
            raise UAMError(
                "the default rate-matched scale needs alpha > 1 "
                "(infinite-mean tails require an explicit x_min)"
            )
        # Match the mean arrival rate of the poisson shape:
        # E[gap] = x_min · alpha / (alpha − 1) = 1 / (rel_rate · a / P).
        mean_gap = s.window / (rel_rate * s.max_arrivals)
        x_min = mean_gap * (alpha - 1.0) / alpha
    return ParetoArrivals(s, alpha=alpha, x_min=x_min)
