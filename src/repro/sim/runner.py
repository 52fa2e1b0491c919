"""High-level simulation entry points.

:func:`simulate` runs one scheduler over a workload; :func:`compare`
runs several schedulers over the *same* materialised workload, which is
how the paper's normalised utility/energy figures are produced.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, Optional, Sequence, Union

import numpy as np

from ..cpu import EnergyModel, FrequencyScale, Processor
from ..demand import DemandProfiler
from ..obs import Observer
from .clock import Clock
from .scheduler import Scheduler
from .engine import Engine, SimulationResult
from .task import TaskSet
from .workload import WorkloadTrace, materialize

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (runtime imports sim)
    from ..check import InvariantChecker
    from ..runtime import AdaptiveRuntime

__all__ = ["Platform", "simulate", "compare"]


class Platform:
    """A CPU configuration: frequency ladder + energy model + overheads.

    Factory for fresh :class:`~repro.cpu.Processor` instances so every
    run starts from clean accounting.
    """

    def __init__(
        self,
        scale: Optional[FrequencyScale] = None,
        energy_model: Optional[EnergyModel] = None,
        idle_power: float = 0.0,
        switch_time: float = 0.0,
        switch_energy: float = 0.0,
    ):
        self.scale = scale if scale is not None else FrequencyScale.powernow_k6()
        self.energy_model = energy_model if energy_model is not None else EnergyModel.e1()
        self.idle_power = idle_power
        self.switch_time = switch_time
        self.switch_energy = switch_energy

    def processor(self) -> Processor:
        return Processor(
            self.scale,
            self.energy_model,
            idle_power=self.idle_power,
            switch_time=self.switch_time,
            switch_energy=self.switch_energy,
        )

    @classmethod
    def powernow_k6(cls, energy_model: Optional[EnergyModel] = None) -> "Platform":
        """The paper's simulation platform (AMD K6-2+ PowerNow!)."""
        return cls(FrequencyScale.powernow_k6(), energy_model)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Platform(scale={self.scale!r}, energy_model={self.energy_model})"


def _as_workload(
    workload: Union[WorkloadTrace, TaskSet],
    horizon: Optional[float],
    rng: Optional[np.random.Generator],
    seed: Optional[int],
) -> WorkloadTrace:
    if isinstance(workload, WorkloadTrace):
        return workload
    if horizon is None:
        raise ValueError("horizon is required when passing a TaskSet")
    if rng is None:
        rng = np.random.default_rng(seed)
    return materialize(workload, horizon, rng)


def simulate(
    workload: Union[WorkloadTrace, TaskSet],
    scheduler: Scheduler,
    platform: Optional[Platform] = None,
    horizon: Optional[float] = None,
    seed: Optional[int] = None,
    rng: Optional[np.random.Generator] = None,
    record_trace: bool = False,
    profiler: Optional[DemandProfiler] = None,
    observer: Optional[Observer] = None,
    runtime: Optional["AdaptiveRuntime"] = None,
    checker: Optional["InvariantChecker"] = None,
    clock: Union[None, str, Clock] = None,
) -> SimulationResult:
    """Run ``scheduler`` over ``workload`` and return the result.

    ``workload`` may be a pre-materialised :class:`WorkloadTrace`
    (reproducible, comparable across schedulers) or a :class:`TaskSet`
    plus ``horizon`` (materialised here from ``rng``/``seed``).
    ``observer`` attaches an observability sink (event log, metrics,
    spans) to both the engine and the scheduler; ``None`` keeps the
    run instrumentation-free.  ``runtime`` attaches an
    :class:`~repro.runtime.AdaptiveRuntime` (online re-allocation, UAM
    enforcement, admission control); it is single-use — pass a fresh
    instance per run.  ``checker`` attaches an observe-only
    :class:`~repro.check.InvariantChecker`; like ``runtime`` it is
    single-use per run.  ``clock`` selects the time source:
    ``None``/``"sim"`` run discrete-event (bit-identical), ``"wall"``
    or a :class:`~repro.sim.clock.Clock` instance makes the engine wait
    for each event instant in real time (the service driver).
    """
    platform = platform if platform is not None else Platform()
    trace = _as_workload(workload, horizon, rng, seed)
    engine = Engine(
        trace,
        scheduler,
        platform.processor(),
        record_trace=record_trace,
        profiler=profiler,
        observer=observer,
        runtime=runtime,
        checker=checker,
        clock=clock,
    )
    return engine.run()


def _simulate_unit(args) -> SimulationResult:
    """One ``compare`` arm (top-level so process pools can pickle it)."""
    trace, scheduler, platform, record_trace = args
    return simulate(trace, scheduler, platform, record_trace=record_trace)


def compare(
    schedulers: Sequence[Scheduler],
    workload: Union[WorkloadTrace, TaskSet],
    platform: Optional[Platform] = None,
    horizon: Optional[float] = None,
    seed: Optional[int] = None,
    rng: Optional[np.random.Generator] = None,
    record_trace: bool = False,
    workers: int = 1,
) -> Dict[str, SimulationResult]:
    """Run every scheduler over the identical materialised workload.

    Returns ``{scheduler.name: result}``.  This is the primitive behind
    all the paper's normalised comparisons — utility and energy of each
    policy divided by the EDF-at-``f_max`` run on the same jobs.

    ``workers > 1`` runs the scheduler arms on a process pool (each arm
    is an independent simulation over the pickled trace); results are
    merged in scheduler order, so the returned mapping is identical to
    the serial one — simulations are deterministic, and the per-arm
    float streams never interact.  Schedulers must be picklable for the
    parallel path (every registry policy is).
    """
    platform = platform if platform is not None else Platform()
    trace = _as_workload(workload, horizon, rng, seed)
    names = [s.name for s in schedulers]
    for name in names:
        if names.count(name) > 1:
            raise ValueError(f"duplicate scheduler name {name!r}")
    if workers > 1:
        # Local import: repro.experiments.parallel imports this module.
        from ..experiments.parallel import run_sweep

        outs = run_sweep(
            _simulate_unit,
            [(trace, s, platform, record_trace) for s in schedulers],
            max_workers=workers,
        )
        return dict(zip(names, outs))
    results: Dict[str, SimulationResult] = {}
    for scheduler in schedulers:
        results[scheduler.name] = simulate(
            trace, scheduler, platform, record_trace=record_trace
        )
    return results
