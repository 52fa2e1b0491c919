"""Service core: synchronous ingestion + dispatch state machine.

:class:`ServiceCore` is the scheduler service with the I/O stripped
away — the asyncio front-end (:mod:`repro.svc.service`) calls into it
from one task, and the test suite drives it directly with fake time.
It binds the paper's online machinery to an *open* arrival stream:

* every submission is released through the engine's own
  :class:`~repro.sim.engine.JobLifecycle`, gated as in a simulation by
  an :class:`~repro.runtime.AdaptiveRuntime` with re-allocation off: UAM
  compliance (shed / defer / admit-and-flag on envelope violations),
  then admission (feasibility projection at ``f_max``, lowest-UER
  eviction on overload) — one gate, one event vocabulary;
* admitted jobs then move through the same lifecycle (expiry, aborts,
  completion, timers, views), so the registry schedulers run verbatim
  against live traffic, and execution and idle time are charged to a
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
from ..runtime import (UAM_VIOLATION, AdaptiveRuntime, ArrivalVerdict, RuntimeConfig,
                       ViolationPolicy)
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
    """Open-stream scheduler state: a job lifecycle gated by a UAM +
    admission runtime, an emulated processor, and the decision event log."""

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
        #: The arrival gate (UAM policing + admission, no re-allocation).
        self.runtime = AdaptiveRuntime(RuntimeConfig(policy=policy.value, adapt=False,
                                                     headroom=headroom))
        self.runtime.bind(taskset, self.platform.scale, self.platform.energy_model,
                          self.scheduler, self.observer)
        #: The emulated CPU every dispatched job runs on.
        self.processor = self.platform.processor()
        self._lifecycle = JobLifecycle(taskset, self.scheduler, [self.processor],
                                       self.observer, runtime=self.runtime, source="svc")
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
        ``demand`` raises ``ValueError`` and leaves no trace), takes its
        task's next job index, and is released through the lifecycle's
        arrival gate (UAM compliance, then admission).
        """
        task = self._tasks.get(task_name)
        if task is None:
            raise UnknownTaskError(task_name)
        job = Job(task, self._indices[task_name], t,
                  float(demand) if demand is not None else task.allocation)
        self._indices[task_name] += 1
        self.counters["submitted"] += 1
        return self._outcome(job, self._lifecycle.release(job, t))

    def _outcome(self, job: Job, verdict: ArrivalVerdict) -> SubmitOutcome:
        """Count one gate verdict and turn it into the client's."""
        action, reason = verdict.action, verdict.reason
        if action == "shed":
            status = "shed" if reason == UAM_VIOLATION else "rejected"
        else:
            status = "admitted" if action == "admit" else "deferred"
        self.counters["shed_uam" if status == "shed" else status] += 1
        self.counters["evicted"] += len(verdict.evictions)
        return SubmitOutcome(status, job.key if status != "shed" else None, reason,
                             job.release if status == "deferred" else None)

    def activate_due(self, t: float) -> int:
        """Admit deferred submissions whose granted release has come."""
        lc = self._lifecycle
        n = 0
        while (job := lc.pop_due(t)) is not None:
            self._outcome(job, lc.release(job, t, deferred=True))
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

    def advance(self, job: Optional[Job], dt: float,
                frequency: Optional[float] = None) -> None:
        """Run ``job`` for ``dt`` clock-seconds at ``frequency`` on the
        service's processor (cycles, energy, switches, residency); with
        ``job=None`` the processor idles for ``dt``, as the engine's idle
        core does, and ``frequency`` is not used (idle power does not
        depend on it)."""
        cpu = self.processor
        if job is None:
            cpu.idle(dt)
            return
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
            uam_violations=self.runtime.monitor.total_violations, tasks=len(self._tasks),
            events=len(events) if events is not None else 0,
        )
