"""Multiprocessor simulation engines (partitioned & global EUA*).

Two execution models over ``m`` per-core :class:`~repro.cpu.Processor`
instances, both behind the existing :class:`~repro.sim.scheduler.SchedulerView`
contract so every uniprocessor policy runs unchanged:

* **partitioned** — tasks are assigned to cores offline
  (:func:`~repro.mp.partition.partition_taskset`) and each core runs the
  *unmodified* uniprocessor :class:`~repro.sim.engine.Engine` over its
  disjoint sub-workload.  No migrations, by construction.
* **global** — one shared ready queue; at every scheduling event the
  policy's ``decide`` is invoked repeatedly over residual views
  (``view.without(...)``) to pick the top-m jobs by its own ordering
  (UER for EUA*), each with its own per-core frequency decision.  The
  views of one event share a per-event memo, so EUA* ranks the ready
  jobs once per event and each later call filters that one ranking
  (σ is still rebuilt per call).  The per-core frequency step runs
  only for policies that override ``decide_frequency`` (EUA*, REUA);
  for fixed-frequency ones (EDF, LA-EDF, DASA…) it is skipped.  Jobs
  may resume on a different core than they last ran on; such migrations
  are counted and emitted as :attr:`~repro.obs.EventKind.MIGRATE`.

The anchoring oracle: at ``m = 1`` both modes reduce *bit-identically*
to the uniprocessor engine — partitioned because it literally runs it,
global because :class:`GlobalEngine` runs the same
:class:`~repro.sim.engine.Engine` event loop, whose dispatch step is
one ``decide`` call at one core.  ``tests/properties/test_mp_equivalence.py``
pins this.

Energy: each core integrates the per-core Martin model exactly as the
uniprocessor does; the platform additionally charges the
frequency-independent uncore share ``active_power`` per powered core
over the whole horizon (:class:`~repro.cpu.MulticorePowerModel`).  The
uncore term is folded into the combined ``idle_energy`` so existing
aggregate consumers (``Metrics``, normalisers, campaigns) see it
without modification; ``active_power = 0`` (the default) keeps m=1 runs
exact.

Checking: an :class:`~repro.check.InvariantChecker` attaches in both
modes.  Its release and decision hooks run live (in each core's engine
when partitioned, in the shared loop when global), and
:func:`repro.check.audit` then audits the packed
:class:`MPSimulationResult` once — per-core tiling, job windows, cycle
and energy conservation, and the cross-core invariants MP1–MP5.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Union

from ..cpu import (
    EnergyModel,
    FrequencyScale,
    MPConfiguration,
    MulticorePowerModel,
    ProcessorStats,
    min_energy_configuration,
)
from ..obs import Observer
from ..sim.engine import Engine, SimulationError, SimulationResult, _CoreObserver
from ..sim.job import Job
from ..sim.metrics import Metrics
from ..sim.runner import Platform
from ..sim.scheduler import Scheduler
from ..sim.task import TaskSet
from ..sim.trace import Segment
from ..sim.workload import WorkloadTrace
from .partition import Partition, partition_taskset

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (check imports sim)
    from ..check import InvariantChecker

__all__ = [
    "MulticorePlatform",
    "MPSimulationResult",
    "simulate_partitioned",
    "simulate_global",
    "simulate_mp",
    "MP_MODES",
]

MP_MODES = ("partitioned", "global")

SchedulerSpecLike = Union[str, Scheduler, Callable[[], Scheduler]]


def _scheduler_factory(spec: SchedulerSpecLike) -> Callable[[], Scheduler]:
    """Normalise a scheduler spec into a fresh-instance factory.

    Accepts a registry name, a zero-arg factory, or a ready instance.
    An instance is wrapped in a single-shot factory: schedulers are
    stateful, so it may be consumed at most once (the partitioned
    engine needs one instance *per core*).
    """
    if isinstance(spec, str):
        from ..sched import make_scheduler

        return lambda: make_scheduler(spec)
    if isinstance(spec, Scheduler):
        box = [spec]

        def once() -> Scheduler:
            if not box:
                raise ValueError(
                    "a Scheduler instance can drive only one core; pass a "
                    "registry name or a factory for multicore runs"
                )
            return box.pop()

        return once
    return spec


class MulticorePlatform(Platform):
    """An m-core platform: shared ladder/model + uncore power term.

    Extends the uniprocessor :class:`~repro.sim.runner.Platform` with a
    core count and the frequency-independent per-active-core uncore
    power ``active_power``.  Every core gets an identical fresh
    :class:`~repro.cpu.Processor` (homogeneous platform — the paper's
    model has no heterogeneity to reproduce).
    """

    def __init__(
        self,
        cores: int = 1,
        scale: Optional[FrequencyScale] = None,
        energy_model: Optional[EnergyModel] = None,
        idle_power: float = 0.0,
        switch_time: float = 0.0,
        switch_energy: float = 0.0,
        active_power: float = 0.0,
    ):
        if cores < 1:
            raise ValueError(f"cores must be >= 1, got {cores!r}")
        super().__init__(
            scale=scale,
            energy_model=energy_model,
            idle_power=idle_power,
            switch_time=switch_time,
            switch_energy=switch_energy,
        )
        self.cores = int(cores)
        self.active_power = float(active_power)

    def power_model(self) -> MulticorePowerModel:
        """The platform's core-count-aware power model."""
        return MulticorePowerModel.martin(self.energy_model, self.active_power)

    def configuration(self, taskset: TaskSet) -> MPConfiguration:
        """Minimum-energy feasible (frequency, active-cores) pair for
        ``taskset`` on this platform (full power on overload)."""
        return min_energy_configuration(
            self.power_model(),
            self.scale,
            self.cores,
            [t.min_feasible_frequency for t in taskset],
        )

    @classmethod
    def from_platform(
        cls, platform: Platform, cores: int, active_power: float = 0.0
    ) -> "MulticorePlatform":
        return cls(
            cores=cores,
            scale=platform.scale,
            energy_model=platform.energy_model,
            idle_power=platform.idle_power,
            switch_time=platform.switch_time,
            switch_energy=platform.switch_energy,
            active_power=active_power,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"MulticorePlatform(cores={self.cores}, scale={self.scale!r}, "
            f"energy_model={self.energy_model}, active_power={self.active_power})"
        )


@dataclass
class MPSimulationResult:
    """Everything a multicore run produces.

    ``metrics``/``processor_stats`` aggregate over all cores (uncore
    energy folded into ``idle_energy``), so the result satisfies the
    same consumer contract as :class:`~repro.sim.engine.SimulationResult`
    — ``normalize_energy``/``normalize_utility``, campaign summaries and
    benchmark reducers work unchanged.
    """

    scheduler_name: str
    mode: str
    cores: int
    metrics: Metrics
    processor_stats: ProcessorStats
    per_core_stats: List[ProcessorStats]
    jobs: List[Job]
    horizon: float
    migrations: int = 0
    uncore_energy: float = 0.0
    #: Task name -> core (partitioned mode only).
    core_of_task: Optional[Dict[str, int]] = None
    partition: Optional[Partition] = None
    #: Per-core execution segments, each core's ``Trace.segments``
    #: (always for global; for partitioned only when ``record_trace=True``
    #: or a checker is attached).
    core_segments: Optional[List[List[Segment]]] = None
    per_core_results: Optional[List[Optional[SimulationResult]]] = None
    configuration: Optional[MPConfiguration] = None
    trace = None  # SimulationResult-consumer compatibility

    @property
    def normalized_utility(self) -> float:
        return self.metrics.normalized_utility

    @property
    def energy(self) -> float:
        return self.metrics.energy


def _combine_stats(
    per_core: List[ProcessorStats], uncore_energy: float
) -> ProcessorStats:
    """Sum per-core accounting; charge the uncore term as idle energy.

    Single-core sums reduce to ``0.0 + x`` which is exact for the
    non-negative accumulators involved, preserving m=1 bit-identity.
    """
    combined = ProcessorStats()
    for s in per_core:
        combined.energy += s.energy
        combined.cycles_executed += s.cycles_executed
        combined.busy_time += s.busy_time
        combined.idle_time += s.idle_time
        combined.idle_energy += s.idle_energy
        combined.switch_count += s.switch_count
        combined.switch_energy += s.switch_energy
        for f, dur in s.residency.items():
            combined.residency[f] = combined.residency.get(f, 0.0) + dur
    combined.idle_energy += uncore_energy
    return combined


# ----------------------------------------------------------------------
# Partitioned mode
# ----------------------------------------------------------------------
def simulate_partitioned(
    workload: WorkloadTrace,
    scheduler: SchedulerSpecLike,
    platform: MulticorePlatform,
    strategy: str = "wfd",
    auto_cores: bool = False,
    observer: Optional[Observer] = None,
    record_trace: bool = False,
    checker: Optional[InvariantChecker] = None,
) -> MPSimulationResult:
    """Partitioned multicore run: m independent uniprocessor engines.

    Tasks are packed onto cores by :func:`partition_taskset`; each
    non-empty core runs the unchanged :class:`~repro.sim.engine.Engine`
    with a fresh scheduler instance over its disjoint sub-workload.
    Empty cores idle for the whole horizon (charging ``idle_power``).
    With ``auto_cores=True`` the minimum-energy feasible active-core
    count from :func:`~repro.cpu.min_energy_configuration` bounds the
    partition; cores beyond it are powered down (no idle or uncore
    energy).  A ``checker`` watches every core's releases and decisions
    (each core's engine binds it in turn) and then audits the combined
    result once; it implies ``record_trace``.
    """
    factory = _scheduler_factory(scheduler)
    taskset = workload.taskset
    horizon = workload.horizon

    configuration: Optional[MPConfiguration] = None
    active = platform.cores
    if auto_cores:
        configuration = platform.configuration(taskset)
        active = configuration.cores if configuration.feasible else platform.cores

    partition = partition_taskset(taskset, active, strategy, f_max=platform.scale.f_max)
    by_spec: Dict[str, List] = {t.name: [] for t in taskset}
    for spec in workload:
        by_spec[spec.task.name].append(spec)

    record_trace = record_trace or checker is not None
    scheduler_name: Optional[str] = None
    per_core_stats: List[ProcessorStats] = []
    per_core_results: List[Optional[SimulationResult]] = []
    core_segments: Optional[List[List[Segment]]] = [] if record_trace else None
    all_jobs: List[Job] = []

    for core, indices in enumerate(partition.assignment):
        if not indices:
            # Powered but idle core: charge idle power over the horizon,
            # matching what the engine does for an eventless workload.
            cpu = platform.processor()
            cpu.idle(horizon)
            per_core_stats.append(cpu.stats)
            per_core_results.append(None)
            if core_segments is not None:
                core_segments.append([Segment(0.0, horizon, None, cpu.frequency)])
            continue
        sub_taskset = partition.sub_taskset(taskset, core)
        sub_specs = [s for i in indices for s in by_spec[taskset[i].name]]
        sub_trace = WorkloadTrace(sub_taskset, horizon, sub_specs)
        sched = factory()
        if scheduler_name is None:
            scheduler_name = sched.name
        engine = Engine(
            sub_trace,
            sched,
            platform.processor(),
            record_trace=record_trace,
            observer=_CoreObserver(observer, core) if observer is not None else None,
            checker=checker,
        )
        result = engine._execute()
        per_core_stats.append(result.processor_stats)
        per_core_results.append(result)
        all_jobs.extend(result.jobs)
        if core_segments is not None:
            core_segments.append(result.trace.segments)

    uncore_energy = platform.active_power * active * horizon
    combined = _combine_stats(per_core_stats, uncore_energy)
    metrics = Metrics(taskset, all_jobs, combined, horizon)
    result = MPSimulationResult(
        scheduler_name=scheduler_name if scheduler_name is not None else "scheduler",
        mode="partitioned",
        cores=platform.cores,
        metrics=metrics,
        processor_stats=combined,
        per_core_stats=per_core_stats,
        jobs=all_jobs,
        horizon=horizon,
        migrations=0,
        uncore_energy=uncore_energy,
        core_of_task=partition.core_of(taskset),
        partition=partition,
        core_segments=core_segments,
        per_core_results=per_core_results,
        configuration=configuration,
    )
    if checker is not None:
        checker.audit(result, observer)
    return result


# ----------------------------------------------------------------------
# Global mode
# ----------------------------------------------------------------------
class GlobalEngine(Engine):
    """Global multicore driver: shared ready queue, top-m dispatch.

    Runs the :class:`~repro.sim.engine.Engine` event loop over the
    platform's m cores and packs the per-core accounting (stats, uncore
    energy, execution segments, migrations) into an
    :class:`MPSimulationResult`.  Each core's
    :class:`~repro.sim.trace.Trace` is always recorded (the result's
    ``core_segments``).  An attached checker watches releases and
    decisions in the shared loop and audits the packed result, exactly
    as it does a uniprocessor run.  At ``m = 1`` the loop's
    dispatch step is a single ``decide`` call, so the float stream is
    bit-identical to the uniprocessor engine (pinned in
    ``tests/properties/test_mp_equivalence.py``).

    DVS switch *time* is rejected: a per-core stall while other cores
    keep running has no well-defined global-time treatment in this
    event model (the uniprocessor engine advances global time for it).
    Switch energy and counts are still accounted.
    """

    def __init__(
        self,
        workload: WorkloadTrace,
        scheduler: Scheduler,
        platform: MulticorePlatform,
        observer: Optional[Observer] = None,
        checker: Optional[InvariantChecker] = None,
    ):
        if platform.switch_time > 0.0:
            raise SimulationError(
                "GlobalEngine does not support switch_time > 0 "
                "(per-core DVS stalls are ill-defined under global time); "
                "use partitioned mode or switch_energy-only overheads"
            )
        super().__init__(
            workload,
            scheduler,
            [platform.processor() for _ in range(platform.cores)],
            record_trace=True,
            observer=observer,
            checker=checker,
        )
        self.platform = platform

    def run(self) -> MPSimulationResult:
        """:meth:`Engine.run` over all m cores, returning the packed result.

        Defined on this class so the global driver can be wrapped by
        name (``benchmarks/suite/tracing.py`` spans it).
        """
        return super().run()

    def _result(self, jobs: List[Job]) -> MPSimulationResult:
        m = len(self.cores)
        horizon = self.workload.horizon
        per_core_stats = [cpu.stats for cpu in self.cores]
        uncore_energy = self.platform.active_power * m * horizon
        combined = _combine_stats(per_core_stats, uncore_energy)
        return MPSimulationResult(
            scheduler_name=self.scheduler.name,
            mode="global",
            cores=m,
            metrics=Metrics(self.workload.taskset, jobs, combined, horizon),
            processor_stats=combined,
            per_core_stats=per_core_stats,
            jobs=jobs,
            horizon=horizon,
            migrations=self.migrations,
            uncore_energy=uncore_energy,
            core_segments=[trace.segments for trace in self.traces],
        )


def simulate_global(
    workload: WorkloadTrace,
    scheduler: SchedulerSpecLike,
    platform: MulticorePlatform,
    observer: Optional[Observer] = None,
    checker: Optional[InvariantChecker] = None,
) -> MPSimulationResult:
    """Global multicore run over ``workload`` (see :class:`GlobalEngine`)."""
    sched = _scheduler_factory(scheduler)()
    return GlobalEngine(workload, sched, platform, observer=observer, checker=checker).run()


# ----------------------------------------------------------------------
def simulate_mp(
    workload: WorkloadTrace,
    scheduler: SchedulerSpecLike,
    platform: MulticorePlatform,
    mode: str = "partitioned",
    strategy: str = "wfd",
    auto_cores: bool = False,
    observer: Optional[Observer] = None,
    record_trace: bool = False,
    checker: Optional[InvariantChecker] = None,
) -> MPSimulationResult:
    """Run a multicore simulation in ``mode`` ("partitioned"/"global").

    An attached ``checker`` (:class:`~repro.check.InvariantChecker`)
    watches every release and decision and audits the finished result
    once, in either mode (:func:`repro.check.audit`).
    """
    if mode not in MP_MODES:
        raise ValueError(f"unknown mp mode {mode!r}; choose from {MP_MODES}")
    if mode == "partitioned":
        return simulate_partitioned(
            workload,
            scheduler,
            platform,
            strategy=strategy,
            auto_cores=auto_cores,
            observer=observer,
            record_trace=record_trace,
            checker=checker,
        )
    return simulate_global(workload, scheduler, platform, observer=observer, checker=checker)
