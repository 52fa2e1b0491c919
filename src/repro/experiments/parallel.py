"""Process-pool sweep execution for the experiment drivers.

Every figure/ablation/sensitivity sweep and every campaign replication
in this package decomposes into independent *units* — every scheduler
arm over one materialised workload (a seed × setting × scheduler-list
cell).  This module makes those units picklable and runs them over a
:class:`~concurrent.futures.ProcessPoolExecutor` with chunked dispatch
and a **deterministic merge**: results come back in submission order
regardless of worker interleaving, so a sweep at ``max_workers=4`` is
value-identical to the same sweep at ``max_workers=1`` (the
determinism suite asserts it).

Building blocks
---------------
:class:`SchedulerSpec`
    A picklable scheduler recipe — a registry name, or a class plus
    constructor kwargs (policies themselves are stateful and must be
    built fresh inside each worker).
:class:`WorkloadSpec` / :class:`PlatformSpec`
    Everything a worker needs to resynthesise the unit's task set,
    materialise its trace, and rebuild its platform, reproducing the
    serial drivers' RNG discipline exactly (one ``default_rng(seed)``
    shared by synthesis and materialisation).  ``WorkloadSpec.build``
    is the package's one synthesise-then-materialise sequence.
:meth:`PlatformSpec.run`
    The one arm runner: one scheduler over one trace, on the
    uniprocessor engine at ``cores == 1`` and on
    :func:`repro.mp.simulate_mp` otherwise.  Sweeps, campaigns and the
    CLI's multicore audit all run their arms through it.
:class:`CompareUnit` → :func:`run_units` → :class:`CompareOutcome`
    The sweep primitive.  ``collect_metrics=True`` attaches a
    metrics-only :class:`~repro.obs.Observer` per scheduler; merge the
    registries across outcomes with :func:`merged_metrics` (merge order
    = unit order = repetition order, matching the serial convention in
    ``docs/observability.md``).
:func:`run_chunked`
    The one order-preserving pool driver: ``fn(shared, chunk)`` per
    contiguous chunk, with the shared payload installed once per worker.
:func:`run_sweep`
    Its per-item adapter, behind :func:`run_units` and
    :func:`repro.sim.runner.compare` (serial at ``max_workers=1``).

``max_workers=1`` (the default everywhere) never touches
``multiprocessing`` — sweeps degrade gracefully to the serial path, and
pool construction failures (restricted environments without ``fork``/
semaphores) fall back to serial with a warning rather than aborting the
experiment.
"""

from __future__ import annotations

import os
import pickle
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from importlib import import_module
from time import perf_counter
from typing import (TYPE_CHECKING, Callable, Dict, Iterable, List, Optional, Sequence, Tuple,
                    TypeVar)

import numpy as np

from ..cpu import FrequencyScale
from ..obs import MetricsRegistry, Observer, Telemetry
from ..sim import runner
from ..sim.engine import SimulationResult
from ..sim.runner import Platform
from ..sim.task import TaskSet
from ..sim.workload import WorkloadTrace, materialize
from .config import TABLE1, AppSetting, energy_setting
from .workload import synthesize_taskset

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (check imports sim)
    from ..check import InvariantChecker

__all__ = [
    "SchedulerSpec",
    "WorkloadSpec",
    "PlatformSpec",
    "CompareUnit",
    "CompareOutcome",
    "run_units",
    "run_sweep",
    "run_chunked",
    "merged_metrics",
    "auto_chunk_size",
    "usable_cpus",
    "speedup_gate",
    "SpeedupRegression",
]

T = TypeVar("T")
R = TypeVar("R")


# ----------------------------------------------------------------------
# Picklable specs
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SchedulerSpec:
    """A picklable recipe for one scheduler instance.

    Either a registry name (``SchedulerSpec.registry("EUA*")``) or a
    scheduler class plus constructor kwargs
    (``SchedulerSpec.of(EUAStar, name="PD", dvs_method="demand")``).
    ``build()`` returns a fresh instance — never share one policy
    object across runs.
    """

    registry_name: Optional[str] = None
    module: Optional[str] = None
    qualname: Optional[str] = None
    kwargs: Tuple[Tuple[str, object], ...] = ()

    @classmethod
    def registry(cls, name: str) -> "SchedulerSpec":
        return cls(registry_name=name)

    @classmethod
    def of(cls, scheduler_cls: type, **kwargs: object) -> "SchedulerSpec":
        return cls(
            module=scheduler_cls.__module__,
            qualname=scheduler_cls.__qualname__,
            kwargs=tuple(sorted(kwargs.items())),
        )

    def build(self):
        if self.registry_name is not None:
            from ..sched import make_scheduler

            return make_scheduler(self.registry_name)
        if self.module is None or self.qualname is None:
            raise ValueError("empty SchedulerSpec: use .registry() or .of()")
        obj = import_module(self.module)
        for part in self.qualname.split("."):
            obj = getattr(obj, part)
        return obj(**dict(self.kwargs))


@dataclass(frozen=True)
class WorkloadSpec:
    """One synthesised workload: the ``synthesize_taskset`` +
    ``materialize`` arguments plus the seed that fixes every draw.

    The worker reproduces the serial drivers' discipline exactly: a
    single ``np.random.default_rng(seed)`` feeds task-set synthesis and
    then trace materialisation, so a unit's workload is bit-identical
    however (and wherever) it runs.
    """

    load: float
    seed: int
    horizon: float
    tuf_shape: str = "step"
    nu: float = 1.0
    rho: float = 0.96
    arrival_mode: str = "periodic"
    burst_override: Optional[int] = None
    apps: Tuple[AppSetting, ...] = TABLE1
    f_max: float = 1000.0
    #: Core count the workload is sized for: the synthesised task set
    #: targets ``load · cores`` total demand (``load`` stays the
    #: *per-core* load knob the paper's figures sweep).  ``cores=1``
    #: multiplies by exactly 1 and reproduces the uniprocessor workload
    #: bit-identically.
    cores: int = 1
    #: Extra ``(key, value)`` pairs for the arrival registry factory
    #: (``repro.arrivals.create_arrival_generator``).  A pair tuple —
    #: not a dict — so the spec stays hashable and its canonical-JSON
    #: rendering (the ``RunCache`` identity) is order-stable.
    arrival_params: Tuple[Tuple[str, object], ...] = ()

    def build(self):
        rng = np.random.default_rng(self.seed)
        taskset = synthesize_taskset(
            target_load=self.load * self.cores,
            rng=rng,
            apps=self.apps,
            tuf_shape=self.tuf_shape,
            nu=self.nu,
            rho=self.rho,
            f_max=self.f_max,
            arrival_mode=self.arrival_mode,
            burst_override=self.burst_override,
            arrival_params=self.arrival_params,
        )
        trace = materialize(taskset, self.horizon, rng)
        return taskset, trace


@dataclass(frozen=True)
class PlatformSpec:
    """A picklable :class:`~repro.sim.Platform` recipe.

    ``scale_levels=None`` selects the paper's PowerNow! ladder; the
    energy model comes from the Table 2 setting name evaluated at
    ``f_max``.
    """

    energy: str = "E1"
    f_max: float = 1000.0
    scale_levels: Optional[Tuple[float, ...]] = None
    idle_power: float = 0.0
    switch_time: float = 0.0
    switch_energy: float = 0.0
    #: Multicore dimension: ``cores > 1`` makes :meth:`run` use
    #: :func:`repro.mp.simulate_mp` in ``mp_mode`` ("partitioned" or
    #: "global"); ``partition_strategy``/``active_power`` parameterise
    #: the partitioner and the uncore power term.
    cores: int = 1
    mp_mode: str = "partitioned"
    partition_strategy: str = "wfd"
    active_power: float = 0.0

    def build(self) -> Platform:
        scale = (
            FrequencyScale(self.scale_levels)
            if self.scale_levels is not None
            else FrequencyScale.powernow_k6()
        )
        return Platform(
            scale=scale,
            energy_model=energy_setting(self.energy, self.f_max),
            idle_power=self.idle_power,
            switch_time=self.switch_time,
            switch_energy=self.switch_energy,
        )

    def build_mp(self):
        """The :class:`~repro.mp.MulticorePlatform` for this spec."""
        from ..mp import MulticorePlatform

        base = self.build()
        return MulticorePlatform.from_platform(
            base, cores=self.cores, active_power=self.active_power
        )

    def run(
        self,
        trace: WorkloadTrace,
        spec: SchedulerSpec,
        *,
        observer: Optional[Observer] = None,
        record_trace: bool = False,
        checker: Optional["InvariantChecker"] = None,
    ):
        """Run one scheduler arm over ``trace`` on this platform.

        The one place a run picks its engine: ``cores > 1`` goes through
        :func:`repro.mp.simulate_mp` (one fresh policy per core in
        partitioned mode), otherwise through :func:`repro.sim.simulate`.
        Either result carries ``scheduler_name``, ``metrics``,
        ``energy`` and ``normalized_utility``.
        """
        if self.cores > 1:
            from ..mp import simulate_mp

            return simulate_mp(
                trace,
                spec.build,
                self.build_mp(),
                mode=self.mp_mode,
                strategy=self.partition_strategy,
                observer=observer,
                record_trace=record_trace,
                checker=checker,
            )
        # Looked up on the module at call time, so a patched
        # ``repro.sim.runner.simulate`` sees every arm.
        return runner.simulate(
            trace,
            spec.build(),
            self.build(),
            record_trace=record_trace,
            observer=observer,
            checker=checker,
        )


@dataclass(frozen=True)
class CompareUnit:
    """One sweep cell: run every scheduler on one materialised workload."""

    key: Tuple
    schedulers: Tuple[SchedulerSpec, ...]
    workload: WorkloadSpec
    platform: PlatformSpec = PlatformSpec()
    record_trace: bool = False
    collect_metrics: bool = False


@dataclass
class CompareOutcome:
    """What one :class:`CompareUnit` produced.

    ``results`` preserves the unit's scheduler order; ``metrics`` (one
    registry per scheduler, same order) is populated only when the unit
    asked for ``collect_metrics``.  ``taskset`` is the synthesised task
    set the workload ran on — analyses like ``verify_assurances`` need
    it next to the results.
    """

    key: Tuple
    results: Dict[str, SimulationResult]
    taskset: TaskSet
    metrics: Dict[str, MetricsRegistry] = field(default_factory=dict)


def _run_compare_unit(unit: CompareUnit) -> CompareOutcome:
    """Execute one unit (top-level so it pickles under ``spawn``).

    Every arm runs through :meth:`PlatformSpec.run` on the one built
    workload and is keyed by its result's ``scheduler_name``, so one
    spec gets the same key at any core count.
    """
    taskset, trace = unit.workload.build()
    results: Dict[str, SimulationResult] = {}
    metrics: Dict[str, MetricsRegistry] = {}
    for spec in unit.schedulers:
        observer = Observer(events=False, metrics=True) if unit.collect_metrics else None
        result = unit.platform.run(
            trace, spec, observer=observer, record_trace=unit.record_trace
        )
        name = result.scheduler_name
        if name in results:
            raise ValueError(f"duplicate scheduler name {name!r}")
        results[name] = result
        if observer is not None:
            metrics[name] = observer.metrics
    return CompareOutcome(key=unit.key, results=results, taskset=taskset, metrics=metrics)


# ----------------------------------------------------------------------
# Scaling gate
# ----------------------------------------------------------------------
def usable_cpus() -> int:
    """CPUs this process may actually run on (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


class SpeedupRegression(AssertionError):
    """A pool speedup gate failed on a host capable of passing it."""


def speedup_gate(
    speedup: float,
    workers: int,
    min_speedup: float = 2.0,
    cpus: Optional[int] = None,
) -> str:
    """Adjudicate a measured pool speedup: ``"pass"`` or ``"skipped"``.

    The three-way outcome is the point — a host with fewer than
    ``workers`` usable CPUs *cannot* demonstrate pool scaling, so the
    gate reports ``"skipped"`` (distinct from ``"pass"``: a benchmark
    must surface the skip, never silently green-light an unmeasurable
    claim).  On a capable host a speedup below ``min_speedup`` raises
    :class:`SpeedupRegression`.

    ``cpus`` defaults to :func:`usable_cpus`; pass it explicitly to
    make the verdict testable independent of the running host.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers!r}")
    if cpus is None:
        cpus = usable_cpus()
    if cpus < workers:
        return "skipped"
    if speedup < min_speedup:
        raise SpeedupRegression(
            f"expected >= {min_speedup:.2f}x speedup at {workers} workers "
            f"on {cpus} CPUs, measured {speedup:.2f}x"
        )
    return "pass"


# ----------------------------------------------------------------------
# The pool
# ----------------------------------------------------------------------
def auto_chunk_size(n_items: int, max_workers: int) -> int:
    """Chunk size for :func:`run_chunked` when the caller does not pin
    one: ~4 chunks per worker (ceiling division, so every item lands in
    a chunk and small batches still parallelise).

    Degenerate shapes are well-defined: ``n_items == 0`` returns 1 (a
    harmless placeholder — :func:`run_chunked` short-circuits empty
    item lists before chunking); ``max_workers <= 1`` (including 0 and
    negatives, both meaning "no pool") returns one all-items chunk; and
    ``n_items < max_workers`` yields chunk size 1 so every item can
    still land on its own worker.  A negative ``n_items`` is a caller
    bug and raises ``ValueError``.
    """
    if n_items < 0:
        raise ValueError(f"n_items must be >= 0, got {n_items!r}")
    if n_items == 0:
        return 1
    if max_workers <= 1:
        return n_items
    return max(1, -(-n_items // (4 * max_workers)))


#: Worker-global one-shot payload, installed by the pool initializer so
#: each worker deserialises it exactly once instead of per task.
_SHARED: object = None


def _install_shared(payload: object) -> None:
    global _SHARED
    _SHARED = payload


class _ChunkCall:
    """Picklable chunk executor: applies the batch function to the
    worker-installed shared payload plus one chunk of items, stamping
    the worker busy interval with raw ``perf_counter`` values
    (``CLOCK_MONOTONIC`` is system-wide on Linux, so the main process
    maps them onto its tracer timeline with
    :meth:`~repro.obs.SpanTracer.rel`)."""

    __slots__ = ("fn",)

    def __init__(self, fn: Callable[[object, Sequence[T]], R]):
        self.fn = fn

    def __call__(self, chunk: Sequence[T]) -> "_ChunkOutcome":
        start = perf_counter()
        value = self.fn(_SHARED, chunk)
        return _ChunkOutcome(value, len(chunk), f"pid-{os.getpid()}", start, perf_counter())


@dataclass
class _ChunkOutcome:
    """One chunk's result plus the worker busy interval that produced it."""

    value: object
    n_items: int
    worker: str
    start: float
    end: float


def run_chunked(
    fn: Callable[[object, Sequence[T]], R],
    items: Sequence[T],
    shared: object,
    max_workers: int = 1,
    chunk_size: Optional[int] = None,
    telemetry: Optional[Telemetry] = None,
) -> List[R]:
    """Order-preserving chunked map: ``fn(shared, chunk)`` per chunk.

    The one pool driver of the package, behind
    :func:`repro.stats.run_campaign` and (through :func:`run_sweep`)
    every sweep.  ``items`` is split into contiguous chunks
    (``chunk_size``, or :func:`auto_chunk_size`), and each pool task
    executes one *chunk* through ``fn`` — so per-task dispatch overhead
    (pickling, future bookkeeping, result transport) amortises over the
    whole chunk, and ``fn`` can fold partial aggregates worker-side
    before anything crosses the process boundary.  The one-shot
    ``shared`` payload is serialised once per worker via the pool
    initializer, never per chunk, and ``fn`` must treat it as read-only
    (worker-side mutations are invisible to other chunks and to the
    caller).

    Results come back in chunk submission order whatever the worker
    interleaving, so any per-item ordering the caller needs is exactly
    the concatenation order of ``items`` — chunking is an execution
    detail, not an identity.  ``max_workers <= 1`` (or a single chunk)
    never touches ``multiprocessing``.  If the pool cannot be created —
    sandboxed environments without working semaphores, for instance —
    the map falls back to the serial path with a warning instead of
    failing.

    With ``telemetry``, serial execution records one ``pool.chunk``
    span per chunk on the ``main`` lane; pool execution records
    ``pool.serialize`` (one pickle probe of the shared payload and every
    chunk), ``pool.submit`` / ``pool.fold`` spans around dispatch and
    the order-preserving merge, and one busy interval per chunk on the
    executing worker's lane.  Both paths count ``pool.chunks`` /
    ``pool.items``; the pool path adds ``pool.pickled_bytes``.  Results
    are identical with and without it.
    """
    items = list(items)
    if not items:
        return []
    if chunk_size is None:
        chunk_size = auto_chunk_size(len(items), max_workers)
    elif chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size!r}")
    chunks = [items[i : i + chunk_size] for i in range(0, len(items), chunk_size)]
    tr = telemetry.tracer if telemetry is not None else None

    if max_workers > 1 and len(chunks) > 1:
        if telemetry is not None:
            with tr.span("pool.serialize"):
                payload = len(pickle.dumps(shared)) + sum(len(pickle.dumps(c)) for c in chunks)
            telemetry.count("pool.pickled_bytes", payload)
        try:
            with ProcessPoolExecutor(
                max_workers=max_workers,
                initializer=_install_shared,
                initargs=(shared,),
            ) as pool:
                if telemetry is None:
                    return [outcome.value for outcome in pool.map(_ChunkCall(fn), chunks)]
                with tr.span("pool.submit"):
                    outcomes = pool.map(_ChunkCall(fn), chunks)
                out: List[R] = []
                # The fold span also absorbs time spent *waiting* on
                # workers — that is honestly what the main process does
                # here; the overlapped execution shows on the lanes.
                with tr.span("pool.fold"):
                    for outcome in outcomes:
                        telemetry.interval(
                            outcome.worker, tr.rel(outcome.start), tr.rel(outcome.end)
                        )
                        telemetry.count("pool.chunks")
                        telemetry.count("pool.items", outcome.n_items)
                        out.append(outcome.value)
                return out
        except (OSError, PermissionError, ImportError) as exc:
            warnings.warn(
                f"process pool unavailable ({exc!r}); running serially",
                RuntimeWarning,
                stacklevel=2,
            )

    if telemetry is None:
        return [fn(shared, chunk) for chunk in chunks]
    # In-process execution does not overlap the caller, so it belongs in
    # the span tree as well as on the ``main`` lane.
    out = []
    for chunk in chunks:
        t0 = tr.now()
        with tr.span("pool.chunk"):
            out.append(fn(shared, chunk))
        telemetry.interval("main", t0, tr.now())
        telemetry.count("pool.chunks")
        telemetry.count("pool.items", len(chunk))
    return out


def _apply_each(fn: Callable[[T], R], chunk: Sequence[T]) -> List[R]:
    """Chunk function of :func:`run_sweep`: ``fn`` over every item."""
    return [fn(item) for item in chunk]


def run_sweep(
    fn: Callable[[T], R],
    items: Sequence[T],
    max_workers: int = 1,
    telemetry: Optional[Telemetry] = None,
) -> List[R]:
    """Order-preserving per-item map: :func:`run_chunked` with ``fn``
    as the shared payload.  ``fn`` and every item must be picklable."""
    chunks = run_chunked(_apply_each, items, fn, max_workers, telemetry=telemetry)
    return [value for chunk in chunks for value in chunk]


def run_units(units: Sequence[CompareUnit], max_workers: int = 1) -> List[CompareOutcome]:
    """Run sweep units, serially or on a process pool.

    Outcomes are returned in unit order whatever the worker
    interleaving, so downstream aggregation (summary statistics, merged
    metrics registries) is independent of ``max_workers``.
    """
    return run_sweep(_run_compare_unit, units, max_workers=max_workers)


def merged_metrics(outcomes: Iterable[CompareOutcome]) -> Dict[str, MetricsRegistry]:
    """Fold per-unit registries into one registry per scheduler.

    Merge order is outcome order × the unit's scheduler order — i.e.
    repetition order, exactly what a serial loop calling
    ``MetricsRegistry.merge`` per run would produce.
    """
    out: Dict[str, MetricsRegistry] = {}
    for outcome in outcomes:
        for name, registry in outcome.metrics.items():
            out.setdefault(name, MetricsRegistry()).merge(registry)
    return out
