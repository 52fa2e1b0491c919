"""The adaptive runtime — closing the loop between workload and scheduler.

The paper's EUA* is *open-loop*: ``offlineComputing(T)`` freezes
``c_i``/``D_i``/``f°_i`` from declared task parameters, and nothing ever
revisits them, however far the observed workload strays.  The
:class:`AdaptiveRuntime` sits between the simulation engine and the
scheduler and closes three loops:

1. **Demand adaptation** — an :class:`~repro.runtime.profiler.AdaptiveProfiler`
   watches executed cycles per completion; on drift it re-derives the
   Chebyshev allocation from the observed moments
   (:func:`repro.demand.allocation.chebyshev_allocation` at the task's
   own ``ρ_i``), installs it with :meth:`repro.sim.task.Task.reallocate`,
   invalidates the ``offlineComputing`` memo and re-runs
   ``scheduler.setup`` — the paper's offline step, executed online.
2. **UAM enforcement** — a :class:`~repro.runtime.monitor.UAMComplianceMonitor`
   checks each arrival against ``⟨a_i, P_i⟩`` and sheds, defers or
   flags the violators (policy-selectable).
3. **Overload admission** — an :class:`~repro.runtime.admission.AdmissionController`
   projects each admitted release against the ready set at ``f_m`` and
   sheds the lowest-UER work when the projection overflows.

Every decision emits a typed event (``DRIFT_DETECTED``,
``REALLOCATION``, ``UAM_VIOLATION``, ``ADMISSION_DECISION``) through the
optional :class:`~repro.obs.observer.Observer`; decisions that change
nothing (compliant arrival, feasible admit) emit nothing and touch no
job state, so an attached runtime over a compliant, in-model workload is
bit-identical to no runtime at all — the differential suite asserts it.

The runtime *mutates* tasks (allocations) during a run;
:meth:`finalize` restores the originals and must always run (the engine
wraps its main loop in ``try/finally``), so task sets shared across
comparison arms cannot leak adapted state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from ..core.offline import invalidate_offline_cache
from ..cpu import EnergyModel, FrequencyScale
from ..demand.allocation import chebyshev_allocation
from ..obs.events import EventKind
from ..obs.observer import Observer
from ..sim.job import Job
from ..sim.scheduler import Scheduler
from ..sim.task import TaskSet
from .admission import AdmissionController
from .drift import make_drift_detector
from .monitor import UAMComplianceMonitor, ViolationPolicy
from .profiler import AdaptiveProfiler

__all__ = ["RuntimeConfig", "ArrivalVerdict", "AdaptiveRuntime", "UAM_VIOLATION"]

#: :attr:`ArrivalVerdict.reason` of an arrival shed for breaking its UAM envelope.
UAM_VIOLATION = "uam-violation"


@dataclass(frozen=True)
class RuntimeConfig:
    """Knobs for the adaptive runtime (all layers individually gated).

    Attributes
    ----------
    policy:
        UAM violation policy — ``"shed"``, ``"defer"`` or
        ``"admit-and-flag"``.
    adapt:
        Enable drift detection and online re-allocation.
    admission:
        Enable release-time overload admission control.
    drift_detector:
        ``"zscore"`` or ``"cusum"``.
    drift_threshold:
        z threshold (zscore) or decision level ``h`` (cusum).
    min_samples:
        Observations required before a detector may fire.
    cusum_k:
        CUSUM allowance in σ units (ignored by zscore).
    variance_ratio:
        Optional zscore variance-drift gate (0 disables).
    headroom:
        Admission capacity derating factor ``>= 1``.
    """

    policy: str = "shed"
    adapt: bool = True
    admission: bool = True
    drift_detector: str = "zscore"
    drift_threshold: float = 4.0
    min_samples: int = 8
    cusum_k: float = 0.5
    variance_ratio: float = 0.0
    headroom: float = 1.0


@dataclass(frozen=True)
class ArrivalVerdict:
    """What :meth:`~repro.sim.engine.JobLifecycle.release` does with one job."""

    #: ``"admit"`` | ``"shed"`` | ``"defer"``.
    action: str
    #: For ``"defer"``: the compliant release instant to re-queue at.
    release: Optional[float] = None
    #: Ready jobs the admission layer evicted (engine sheds them).
    evictions: Tuple[Job, ...] = ()
    #: Why: :data:`UAM_VIOLATION`, ``"uam-deferral"`` or the admission
    #: verdict's reason (``"feasible"``, ``"evicted-lower-uer"``, ...).
    reason: str = "feasible"


_ADMIT = ArrivalVerdict("admit")


class AdaptiveRuntime:
    """Facade the engine drives; owns the three adaptation layers."""

    def __init__(self, config: Optional[RuntimeConfig] = None):
        self.config = config or RuntimeConfig()
        self.policy = ViolationPolicy.parse(self.config.policy)
        # Layers are built at bind() time (need the task set / platform).
        self.profiler: Optional[AdaptiveProfiler] = None
        self.monitor: Optional[UAMComplianceMonitor] = None
        self.admission: Optional[AdmissionController] = None
        self._taskset: Optional[TaskSet] = None
        self._scale: Optional[FrequencyScale] = None
        self._model: Optional[EnergyModel] = None
        self._scheduler: Optional[Scheduler] = None
        self._obs: Optional[Observer] = None
        self._original_allocations: Dict[str, float] = {}
        # Counters (summary()).
        self.shed_jobs = 0
        self.deferred_jobs = 0
        self.flagged_jobs = 0
        self.reallocations = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def bind(
        self,
        taskset: TaskSet,
        scale: FrequencyScale,
        model: EnergyModel,
        scheduler: Scheduler,
        observer: Optional[Observer] = None,
    ) -> None:
        """Attach to one run.  Called by the engine before the main loop."""
        cfg = self.config
        self._taskset = taskset
        self._scale = scale
        self._model = model
        self._scheduler = scheduler
        self._obs = observer
        self._original_allocations = {t.name: t.allocation for t in taskset}
        self.monitor = UAMComplianceMonitor(taskset, self.policy)
        if cfg.adapt:
            self.profiler = AdaptiveProfiler(
                lambda mean, std: make_drift_detector(
                    cfg.drift_detector,
                    mean,
                    std,
                    threshold=cfg.drift_threshold,
                    min_samples=cfg.min_samples,
                    cusum_k=cfg.cusum_k,
                    variance_ratio=cfg.variance_ratio,
                )
            )
            self.profiler.register_all(taskset)
        if cfg.admission:
            self.admission = AdmissionController(cfg.headroom)

    def finalize(self) -> None:
        """Restore every task's original allocation.

        The engine calls this in a ``finally`` block; afterwards the task
        set is indistinguishable from one that never ran adaptively (the
        offline memo is invalidated too, so nothing stale survives).
        """
        if self._taskset is None:
            return
        for task in self._taskset:
            original = self._original_allocations.get(task.name)
            if original is not None and task.allocation != original:
                task.reallocate(original)
        invalidate_offline_cache(self._taskset)

    # ------------------------------------------------------------------
    # Engine hooks
    # ------------------------------------------------------------------
    def on_arrival(
        self, job: Job, t: float, ready: Sequence[Job], deferred: bool = False
    ) -> ArrivalVerdict:
        """Gate one release.  ``deferred`` marks the re-release of a job
        this runtime itself deferred (its reservation is already in the
        monitor's window, so only admission applies)."""
        assert self.monitor is not None, "bind() not called"
        if not deferred:
            violation = self.monitor.check(job.task, t)
            if violation is not None:
                self._emit(
                    t,
                    EventKind.UAM_VIOLATION,
                    job=job.key,
                    task=violation.task,
                    policy=violation.policy.value,
                    window_anchor=violation.window_anchor,
                    window_count=violation.window_count,
                    deferred_to=violation.deferred_to,
                )
                if self.policy is ViolationPolicy.SHED:
                    self.shed_jobs += 1
                    return ArrivalVerdict("shed", reason=UAM_VIOLATION)
                if self.policy is ViolationPolicy.DEFER:
                    self.deferred_jobs += 1
                    return ArrivalVerdict("defer", release=violation.deferred_to,
                                          reason="uam-deferral")
                self.flagged_jobs += 1  # ADMIT_AND_FLAG falls through

        if self.admission is not None:
            assert self._scale is not None and self._model is not None
            verdict = self.admission.evaluate(
                job, t, ready, self._scale.f_max, self._model
            )
            if not verdict.admit:
                self.shed_jobs += 1
                self._emit(
                    t,
                    EventKind.ADMISSION_DECISION,
                    job=job.key,
                    action="reject",
                    reason=verdict.reason,
                )
                return ArrivalVerdict("shed", reason=verdict.reason)
            if verdict.evictions:
                self.shed_jobs += len(verdict.evictions)
                self._emit(
                    t,
                    EventKind.ADMISSION_DECISION,
                    job=job.key,
                    action="admit-evicting",
                    reason=verdict.reason,
                    evicted=",".join(j.key for j in verdict.evictions),
                )
                return ArrivalVerdict("admit", evictions=verdict.evictions,
                                      reason=verdict.reason)
        return _ADMIT

    def on_completion(self, job: Job, t: float) -> bool:
        """Feed the profiler; adapt allocations when drift is detected.
        Returns whether a task was reallocated."""
        if self.profiler is None:
            return False
        report = self.profiler.observe(job.task.name, job.executed)
        if report is None:
            return False
        self._emit(
            t,
            EventKind.DRIFT_DETECTED,
            job=job.key,
            task=report.task,
            detector=self.config.drift_detector,
            samples=report.samples,
            baseline_mean=report.baseline_mean,
            baseline_std=report.baseline_std,
            observed_mean=report.observed_mean,
            observed_variance=report.observed_variance,
            statistic=report.statistic,
        )
        self._reallocate(job, t, report.observed_mean, report.observed_variance)
        return True

    # ------------------------------------------------------------------
    def _reallocate(self, job: Job, t: float, mean: float, variance: float) -> None:
        """The paper's offline step, online: re-derive ``c_i`` from the
        observed moments and rebuild the scheduler's parameters."""
        assert self._taskset is not None and self._scheduler is not None
        assert self._scale is not None and self._model is not None
        task = job.task
        old = task.allocation
        new = chebyshev_allocation(mean, max(0.0, variance), task.rho)
        task.reallocate(new)
        invalidate_offline_cache(self._taskset)
        self._scheduler.setup(self._taskset, self._scale, self._model)
        assert self.profiler is not None
        self.profiler.rebaseline(task.name, mean, max(0.0, variance) ** 0.5)
        self.reallocations += 1
        self._emit(
            t,
            EventKind.REALLOCATION,
            job=job.key,
            task=task.name,
            old_allocation=old,
            new_allocation=new,
            observed_mean=mean,
            observed_variance=variance,
            rho=task.rho,
        )

    def _emit(self, t: float, kind: EventKind, job: Optional[str] = None, **fields) -> None:
        if self._obs is not None:
            self._obs.emit(t, kind, job=job, source="runtime", **fields)

    # ------------------------------------------------------------------
    def summary(self) -> Dict[str, float]:
        """Flat counters for experiment tables and the CLI."""
        out: Dict[str, float] = {
            "shed_jobs": float(self.shed_jobs),
            "deferred_jobs": float(self.deferred_jobs),
            "flagged_jobs": float(self.flagged_jobs),
            "reallocations": float(self.reallocations),
            "uam_violations": float(self.monitor.total_violations if self.monitor else 0),
        }
        if self.profiler is not None:
            out["demand_observations"] = float(self.profiler.observations)
            out["drift_alarms"] = float(self.profiler.alarms)
        if self.admission is not None:
            out["admission_rejected"] = float(self.admission.rejected)
            out["admission_evicted"] = float(self.admission.evicted)
        return out
