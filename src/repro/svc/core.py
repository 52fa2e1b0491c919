"""Service core: synchronous ingestion + dispatch state machine.

:class:`ServiceCore` is the scheduler service with the I/O stripped
away — the asyncio front-end (:mod:`repro.svc.service`) calls into it
from one task, and the test suite drives it directly with fake time.
It binds the paper's online machinery to an *open* arrival stream:

* every submission passes the :class:`~repro.runtime.UAMComplianceMonitor`
  (shed / defer / admit-and-flag on envelope violations) and then the
  :class:`~repro.runtime.AdmissionController` (feasibility projection at
  ``f_max``, lowest-UER eviction on overload);
* admitted jobs then move through the engine's own
  :class:`~repro.sim.engine.JobLifecycle` (release, expiry, aborts,
  completion, timers, views), so the registry schedulers run verbatim
  against live traffic, and execution is charged to a
  :class:`~repro.cpu.Processor` whose energy ``/stats`` reports;
* every decision lands in a :class:`~repro.obs.Observer` event log in
  the standard ``repro.obs`` wire format, which the HTTP front-end
  streams as JSONL.

Time is whatever the caller says it is (``t`` arguments throughout), so
the core holds no clock: the service feeds it the ``now()`` of a
:class:`~repro.sim.clock.WallClock`, tests feed it literal times.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional

from ..obs import EventKind, Observer
from ..runtime import AdmissionController, UAMComplianceMonitor, ViolationPolicy
from ..sched import make_scheduler
from ..sim import Platform
from ..sim.engine import EPS_CYCLES, EPS_TIME, JobLifecycle
from ..sim.job import Job
from ..sim.scheduler import Decision, Scheduler, SchedulingEvent
from ..sim.task import TaskSet

__all__ = ["ServiceCore", "SubmitOutcome", "UnknownTaskError"]


class UnknownTaskError(KeyError):
    """Submission named a task the service does not host."""


@dataclass(frozen=True)
class SubmitOutcome:
    """Verdict returned to the submitting client."""

    #: ``admitted`` | ``deferred`` | ``shed`` | ``rejected``
    status: str
    job: Optional[str] = None
    reason: str = "feasible"
    #: For ``deferred``: the granted compliant release instant.
    release: Optional[float] = None

    @property
    def accepted(self) -> bool:
        return self.status in ("admitted", "deferred")

    def to_dict(self) -> dict:
        out = {"status": self.status, "reason": self.reason}
        if self.job is not None:
            out["job"] = self.job
        if self.release is not None:
            out["release"] = self.release
        return out


class ServiceCore:
    """Open-stream scheduler state: UAM + admission gates in front of a
    job lifecycle, an emulated processor, and the decision event log."""

    def __init__(
        self,
        taskset: TaskSet,
        platform: Optional[Platform] = None,
        scheduler: Optional[Scheduler] = None,
        policy: ViolationPolicy = ViolationPolicy.SHED,
        headroom: float = 1.0,
        observer: Optional[Observer] = None,
    ):
        self.taskset = taskset
        self.platform = platform if platform is not None else Platform()
        self.scheduler = scheduler if scheduler is not None else make_scheduler("EUA*")
        self.observer = observer if observer is not None else Observer(
            events=True, metrics=True
        )
        self.monitor = UAMComplianceMonitor(taskset, policy)
        self.admission = AdmissionController(headroom)
        #: The emulated CPU every dispatched job runs on.
        self.processor = self.platform.processor()
        self._lifecycle = JobLifecycle(taskset, self.scheduler, [self.processor],
                                       self.observer, source="svc")
        #: The live ready set (the lifecycle's own list).
        self.ready: List[Job] = self._lifecycle.ready

        self._tasks = {task.name: task for task in taskset}
        self._indices: Dict[str, int] = {task.name: 0 for task in taskset}
        #: Lifecycle counters (service ``/stats``, load reports).
        self.counters: Dict[str, int] = {
            key: 0
            for key in (
                "submitted", "admitted", "deferred", "shed_uam",
                "rejected", "evicted", "completed", "expired",
                "aborted", "deadline_hits",
            )
        }
        self.utility_accrued = 0.0

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    def submit(self, task_name: str, t: float, demand: Optional[float] = None) -> SubmitOutcome:
        """One job submission at service time ``t``.

        ``demand`` is the emulated true cycle demand (Mcycles); the
        default is the task's Chebyshev allocation ``c_i`` — a
        budget-conforming job.  The job is validated first (a bad
        ``demand`` raises ``ValueError`` and leaves no trace), then UAM
        compliance is checked (the envelope gates what *counts* as an
        arrival), then admission.
        """
        task = self._tasks.get(task_name)
        if task is None:
            raise UnknownTaskError(task_name)
        job = Job(task, self._indices[task_name], t,
                  float(demand) if demand is not None else task.allocation)
        self.counters["submitted"] += 1
        obs = self.observer

        violation = self.monitor.check(task, t)
        if violation is not None:
            obs.emit(t, EventKind.UAM_VIOLATION, source="svc",
                     task=task.name, policy=violation.policy.value,
                     window_anchor=violation.window_anchor,
                     window_count=violation.window_count,
                     deferred_to=violation.deferred_to)
            obs.inc("svc_uam_violations", task=task.name)
            if violation.policy is ViolationPolicy.SHED:
                self.counters["shed_uam"] += 1
                obs.emit(t, EventKind.ADMISSION_DECISION, source="svc",
                         task=task.name, action="shed", reason="uam-violation")
                return SubmitOutcome("shed", reason="uam-violation")
            if violation.policy is ViolationPolicy.DEFER:
                job.release = violation.deferred_to
        self._indices[task_name] += 1

        if job.release > t + EPS_TIME:
            # Deferred: admission runs when the grant comes due.
            self.counters["deferred"] += 1
            self._lifecycle.defer(job)
            obs.emit(t, EventKind.ADMISSION_DECISION, job.key, source="svc",
                     action="defer", reason="uam-deferral", release=job.release)
            return SubmitOutcome("deferred", job=job.key,
                                 reason="uam-deferral", release=job.release)
        return self._admit(job, t)

    def _admit(self, job: Job, t: float) -> SubmitOutcome:
        obs = self.observer
        lc = self._lifecycle
        verdict = self.admission.evaluate(
            job, t, self.ready, self.platform.scale.f_max,
            self.platform.energy_model,
        )
        if not verdict.admit:
            self.counters["rejected"] += 1
            lc.drop(job, t)
            obs.emit(t, EventKind.ADMISSION_DECISION, job.key, source="svc",
                     action="reject", reason=verdict.reason)
            return SubmitOutcome("rejected", job=job.key, reason=verdict.reason)
        for victim in verdict.evictions:
            lc.drop(victim, t)
            self.counters["evicted"] += 1
            obs.emit(t, EventKind.ADMISSION_DECISION, victim.key, source="svc",
                     action="evict", reason="lower-uer", evicted_for=job.key)
        lc.admit(job, t)
        self.counters["admitted"] += 1
        obs.emit(t, EventKind.ADMISSION_DECISION, job.key, source="svc",
                 action="admit", reason=verdict.reason)
        return SubmitOutcome("admitted", job=job.key, reason=verdict.reason)

    def activate_due(self, t: float) -> int:
        """Admit deferred submissions whose granted release has come."""
        n = 0
        while (job := self._lifecycle.pop_due(t)) is not None:
            self._admit(job, t)
            n += 1
        return n

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def expire_overdue(self, t: float) -> List[Job]:
        """Abort ready jobs whose termination time has passed."""
        expired = self._lifecycle.expire_overdue(t)
        self.counters["expired"] += len(expired)
        return expired

    def decide(self, t: float, event: SchedulingEvent = SchedulingEvent.ARRIVAL) -> Decision:
        """One scheduling decision over the current ready set.

        Runs the deferred-activation and expiry passes first (the
        service's release/expiry phases), then consults the scheduler
        over an engine-identical view snapshot.
        """
        self.activate_due(t)
        self.expire_overdue(t)
        if not self.ready:
            return Decision(job=None, frequency=self.platform.scale.f_max)
        lc = self._lifecycle
        decision = self.scheduler.decide(lc.view(t, event))
        lc.apply(decision, t)
        self.counters["aborted"] += len(decision.aborts)
        if decision.job is not None:
            self.observer.emit(t, EventKind.DISPATCH, decision.job.key, source="svc",
                               frequency=decision.frequency,
                               remaining_budget=decision.job.remaining_budget)
        return decision

    def advance(self, job: Job, dt: float, frequency: float) -> None:
        """Run ``job`` for ``dt`` clock-seconds at ``frequency`` on the
        service's processor (cycles, energy, switches, residency)."""
        cpu = self.processor
        cpu.set_frequency(frequency)
        if dt > 0.0:
            job.executed += cpu.run(dt)

    def complete_if_done(self, job: Job, t: float) -> bool:
        """Complete ``job`` when its emulated demand is exhausted."""
        if job.remaining_demand > EPS_CYCLES or job.is_finished:
            return False
        self._lifecycle.complete(job, t)
        self.counters["completed"] += 1
        self.utility_accrued += job.accrued_utility
        if t <= job.critical_time + EPS_TIME:
            self.counters["deadline_hits"] += 1
        return True

    # ------------------------------------------------------------------
    # Timers / snapshots
    # ------------------------------------------------------------------
    def next_timer(self, t: float) -> Optional[float]:
        """Earliest future instant needing attention (deferral grant or
        termination deadline), or ``None`` when no timer is pending."""
        timer = self._lifecycle.next_timer(t)
        return timer if timer != math.inf else None

    def stats(self) -> dict:
        """JSON-friendly counter snapshot (``/stats``, load reports)."""
        cpu, events = self.processor.stats, self.observer.events
        return dict(
            self.counters, ready_depth=len(self.ready),
            deferred_pending=len(self._lifecycle.deferred),
            utility_accrued=self.utility_accrued, energy=cpu.total_energy,
            switch_count=cpu.switch_count, busy_time=cpu.busy_time,
            uam_violations=self.monitor.total_violations, tasks=len(self._tasks),
            events=len(events) if events is not None else 0,
        )
