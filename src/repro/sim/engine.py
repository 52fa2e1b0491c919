"""Discrete-event simulation engine.

Preemptive DVS processors driven by any
:class:`~repro.sched.base.Scheduler`.  The engine owns ground truth
(true job demands); the scheduler sees only budgets and executed cycles.

Event model
-----------
The scheduler is (re-)invoked at exactly the paper's scheduling events:

* **arrival** of a job,
* **completion** of a job,
* **expiration of a time constraint** (a TUF termination time).

Between events the chosen job runs at the chosen frequency.  The engine
advances time to the earliest of: next arrival, next relevant
termination, predicted completion of a running job, or the horizon —
then applies state changes and re-invokes the scheduler.

Abortion semantics (paper Section 2.2): when a pending job's
termination time is reached, an exception is raised which aborts the job
(status ``EXPIRED``).  Policies with ``abort_expired = False`` (the
`-NA` baselines) suppress this, so stale jobs keep executing and accrue
zero utility — the domino-effect regime of the evaluation.  Exception
handlers are modelled as zero-cost (the paper does not charge them).
These transitions live in one :class:`JobLifecycle`, which the live
:class:`~repro.svc.ServiceCore` drives too.

Cores
-----
The loop runs over a list of ``m`` processors sharing one ready queue.
Dispatch is the only step that depends on ``m``: ``decide`` is called
once per core over residual views (``view.without(...)``) until the
policy idles, so at ``m = 1`` it is exactly one call.  The views of one
event share a per-event memo (:attr:`SchedulerView.memo`), so a policy
can do its per-event work once: EUA* ranks the ready jobs on the first
call and filters that ranking on the later ones.  With ``m > 1``
the picks are placed affinity-first (a job resumes on the core it last
ran on when that core is free; other moves count as migrations) and
each busy core then gets its own frequency decision over a per-core
residual view.  That step runs only for a policy whose class overrides
:meth:`Scheduler.decide_frequency` (decided once per run); for
fixed-frequency policies such as EDF it would keep every selection
frequency, so it is skipped.  Built over a single
:class:`~repro.cpu.Processor` the engine is the uniprocessor; built
over a list it tags every per-core event with ``core=k`` (see
:class:`repro.mp.GlobalEngine`).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple, Union

from ..cpu import Processor, ProcessorStats
from ..obs import EventKind, Observer
from .scheduler import (ArrivalWindow, Decision, Scheduler, SchedulerView, SchedulingEvent,
                        _pending_key)
from .job import Job, JobStatus
from .metrics import Metrics
from .task import TaskSet
from .trace import Trace
from .workload import WorkloadTrace

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (runtime imports sim)
    from ..check import InvariantChecker
    from ..runtime import AdaptiveRuntime, ArrivalVerdict

__all__ = ["Engine", "JobLifecycle", "SimulationResult", "SimulationError"]

#: Cycle tolerance: a job with fewer remaining Mcycles is complete.
EPS_CYCLES = 1e-9
#: Time tolerance for event coincidence.
EPS_TIME = 1e-12


class SimulationError(RuntimeError):
    """Raised when the engine detects an inconsistent run."""


class _ArrivalLog:
    """Append-only release log of one task with a trailing-window head.

    :meth:`JobLifecycle.view` trims the UAM window by advancing ``head``
    and never removes entries, so an
    :class:`~repro.sim.scheduler.ArrivalWindow` snapshot stays valid
    after the run moves on.  ``snap`` caches the current window's
    snapshot until the next append or trim.
    """

    __slots__ = ("data", "head", "snap")

    def __init__(self) -> None:
        self.data: List[float] = []
        self.head = 0
        self.snap: Optional[ArrivalWindow] = None


class JobLifecycle:
    """The per-job transitions of the paper's event model (§2.2).

    It owns a run's ``ready`` list, per-task release logs and deferred
    releases, and is the only code that moves a job between states:
    :meth:`release` (the runtime's UAM + admission gate, then :meth:`admit`,
    :meth:`drop` or :meth:`defer`), :meth:`pop_due`, :meth:`expire_overdue`,
    :meth:`apply` (scheduler aborts) and :meth:`complete`.  It binds the
    scheduler to the run and reads the energy of its ``cores`` into each
    :meth:`view`.  Two drivers call it: :class:`Engine`'s loop and the live
    :class:`~repro.svc.ServiceCore` (``source="svc"``, with a gate-only
    runtime).  Each observer, checker and runtime site is one ``is None`` branch.
    """

    __slots__ = ("taskset", "scheduler", "cores", "obs", "checker", "runtime",
                 "source", "ready", "deferred", "_seq", "_logs", "_windows", "_pending")

    def __init__(self, taskset: TaskSet, scheduler: Scheduler, cores: List[Processor],
                 observer: Optional[Observer] = None,
                 checker: Optional["InvariantChecker"] = None,
                 runtime: Optional["AdaptiveRuntime"] = None, source: str = "engine"):
        self.taskset = taskset
        self.scheduler = scheduler
        self.cores = cores
        self.obs = observer
        self.checker = checker
        self.runtime = runtime
        self.source = source
        self.ready: List[Job] = []
        #: ``id(task)`` -> that task's ready jobs (maybe none) sorted by
        #: ``_pending_key``, kept by :meth:`admit`, :meth:`drop` and
        #: :meth:`complete` so no decision regroups ``ready``.  Each
        #: group is a tuple replaced on every change, so views share it.
        self._pending: Dict[int, Tuple[Job, ...]] = {}
        #: ``(release, seq, job)`` heap; seq breaks ties (jobs do not compare).
        self.deferred: List[Tuple[float, int, Job]] = []
        self._seq = 0
        self._logs = {task.name: _ArrivalLog() for task in taskset}
        self._windows = [(self._logs[task.name], task.name, task.uam.window)
                         for task in taskset]
        if observer is not None:
            scheduler.bind_observer(observer)
        scheduler.setup(taskset, cores[0].scale, cores[0].model)

    def release(self, job: Job, t: float,
                deferred: bool = False) -> Optional["ArrivalVerdict"]:
        """The arrival gate: carry out and return the runtime's verdict on
        ``job`` (``deferred``: a re-release it granted), or just admit it
        and return ``None`` when no runtime is attached."""
        rt = self.runtime
        if rt is None:
            self.admit(job, t)
            return None
        verdict = rt.on_arrival(job, t, self.ready, deferred)
        if verdict.action == "shed":
            self.drop(job, t)
        elif verdict.action == "defer":
            job.release = verdict.release
            self.defer(job)
        else:
            for victim in verdict.evictions:
                self.drop(victim, t)
            self.admit(job, t)
        return verdict

    def admit(self, job: Job, t: float) -> None:
        """Release ``job`` into ``ready`` and its task's arrival log."""
        self.ready.append(job)
        # The sort key is final here (a deferral sets the release first);
        # inserting after equal keys matches a stable sort of ``ready``.
        # Releases mostly come in key order, so the scan rarely moves.
        pending = self._pending
        key = id(job.task)
        group = pending.get(key, ())
        k = _pending_key(job)
        i = len(group)
        while i and _pending_key(group[i - 1]) > k:
            i -= 1
        pending[key] = group[:i] + (job,) + group[i:]
        log = self._logs[job.task.name]
        log.data.append(job.release)
        log.snap = None
        if self.checker is not None:
            self.checker.on_release(job, t)
        if self.obs is not None:
            self.obs.emit(t, EventKind.RELEASE, job.key, self.source,
                          release=job.release, termination=job.termination)

    def drop(self, job: Job, t: float, status: JobStatus = JobStatus.SHED) -> None:
        """End ``job`` unfinished (by default ``SHED`` at the admission gate)."""
        job.status = status
        job.abort_time = t
        if job in self.ready:
            self._remove(job)

    def _remove(self, job: Job) -> None:
        self.ready.remove(job)
        key = id(job.task)
        group = self._pending[key]
        i = group.index(job)
        self._pending[key] = group[:i] + group[i + 1:]

    def defer(self, job: Job) -> None:
        """Hold ``job`` until its granted release instant."""
        heapq.heappush(self.deferred, (job.release, self._seq, job))
        self._seq += 1

    def pop_due(self, t: float) -> Optional[Job]:
        """The next deferred job whose release has come, if any."""
        deferred = self.deferred
        if deferred and deferred[0][0] <= t + EPS_TIME:
            return heapq.heappop(deferred)[2]
        return None

    def expire_overdue(self, t: float) -> List[Job]:
        """Raise the termination exception: abort (``EXPIRED``) each ready
        job past its termination time, unless the policy keeps them."""
        if not self.scheduler.abort_expired:
            return []
        t_eps = t + EPS_TIME
        expired = [j for j in self.ready if j.termination <= t_eps and j.task.abortable]
        obs = self.obs
        for job in expired:
            self.drop(job, t, JobStatus.EXPIRED)
            if obs is not None:
                obs.emit(t, EventKind.EXPIRE, job.key, self.source,
                         executed=job.executed, demand=job.demand)
        return expired

    def apply(self, decision: Decision, t: float) -> None:
        """Carry out ``decision``'s aborts; check that its pick is ready."""
        obs = self.obs
        for job in decision.aborts:
            if job.is_finished:
                raise SimulationError(f"scheduler aborted finished job {job.key}")
            self.drop(job, t, JobStatus.ABORTED)
            if obs is not None:
                obs.emit(t, EventKind.ABORT, job.key, self.source,
                         executed=job.executed, budget=job.allocated)
        picked = decision.job
        if picked is not None and picked not in self.ready:
            raise SimulationError(f"scheduler selected non-ready job {picked.key}")

    def complete(self, job: Job, t: float, **tags: int) -> bool:
        """Complete ``job`` at ``t`` (``tags``: extra COMPLETE fields); True
        when the runtime reallocated on it (its events precede COMPLETE)."""
        job.status = JobStatus.COMPLETED
        job.completion_time = t
        job.accrued_utility = job.utility_at(t)
        self._remove(job)
        self.scheduler.on_completion(job, t)
        reallocated = self.runtime is not None and self.runtime.on_completion(job, t)
        if self.obs is not None:
            self.obs.emit(t, EventKind.COMPLETE, job.key, self.source,
                          utility=job.accrued_utility, sojourn=t - job.release, **tags)
        return reallocated

    def next_timer(self, t: float) -> float:
        """Earliest future deferred release or ready termination (or inf)."""
        t_next = self.deferred[0][0] if self.deferred else math.inf
        if self.scheduler.abort_expired:
            t_eps = t + EPS_TIME
            for j in self.ready:
                j_term = j.termination
                if j_term < t_next and j_term > t_eps and j.task.abortable:
                    t_next = j_term
        return t_next

    def view(self, t: float, event: SchedulingEvent, dvs: bool = True) -> SchedulerView:
        """The scheduler-visible snapshot for one decision point.

        :class:`SchedulerView` copies the live ``ready`` list, so a
        retained view stays membership-stable after later transitions
        (the regression suite pins this); it gets a shallow copy of the
        pending index, whose groups are never mutated in place, and the
        per-task windows are :class:`~repro.sim.scheduler.ArrivalWindow`
        snapshots over the append-only release logs, equally stable
        without list copies.
        """
        counts: Dict[str, ArrivalWindow] = {}
        for log, name, window in self._windows:
            # Trim: advance the head past releases at or before the cutoff.
            cutoff = t - window + EPS_TIME
            data = log.data
            head = log.head
            n = len(data)
            while head < n and data[head] <= cutoff:
                head += 1
            snap = log.snap
            if head != log.head or snap is None:
                log.head = head
                snap = log.snap = ArrivalWindow(data, head, n)
            counts[name] = snap
        cores = self.cores
        energy = 0.0
        for cpu in cores:
            energy += cpu.stats.total_energy
        view = SchedulerView(
            time=t,
            ready=self.ready,
            taskset=self.taskset,
            scale=cores[0].scale,
            energy_model=cores[0].model,
            event=event,
            arrivals_in_window=counts,
            energy_consumed=energy,
            dvs=dvs,
        )
        view._pending = self._pending.copy()
        return view


class _CoreObserver:
    """Observer proxy that stamps every event with its core index.

    Duck-types the :class:`~repro.obs.Observer` surface the engine and
    schedulers touch (``emit``/``inc``/``set_gauge``/``observe`` plus
    the ``events``/``metrics``/``spans`` attributes).  All sinks are
    *shared* with the wrapped observer — only ``emit`` is intercepted,
    to inject ``core=k`` into the event's field dict.  Metric label
    cardinality is left untouched so m=1 runs aggregate identically to
    uniprocessor ones.
    """

    __slots__ = ("_obs", "core", "events", "metrics", "spans")

    def __init__(self, obs: Observer, core: int):
        self._obs = obs
        self.core = core
        self.events = obs.events
        self.metrics = obs.metrics
        self.spans = obs.spans

    def emit(self, time, kind, job=None, source="engine", **fields) -> None:
        if self.events is not None:
            self.events.emit(time, kind, job, source, core=self.core, **fields)

    def inc(self, name, amount=1.0, **labels) -> None:
        self._obs.inc(name, amount, **labels)

    def set_gauge(self, name, value, **labels) -> None:
        self._obs.set_gauge(name, value, **labels)

    def observe(self, name, value, **labels) -> None:
        self._obs.observe(name, value, **labels)


@dataclass
class SimulationResult:
    """Everything a run produces."""

    scheduler_name: str
    metrics: Metrics
    processor_stats: ProcessorStats
    jobs: List[Job]
    horizon: float
    trace: Optional[Trace] = None

    @property
    def normalized_utility(self) -> float:
        return self.metrics.normalized_utility

    @property
    def energy(self) -> float:
        return self.metrics.energy


class Engine:
    """One simulation run binding a workload, a scheduler and a CPU.

    ``processor`` is either one :class:`~repro.cpu.Processor` (the
    uniprocessor: events carry no core field) or a list of ``m`` of
    them sharing the ready queue (global dispatch: per-core events end
    with ``core=k`` and migrations land in :attr:`migrations`).

    Each fact the loop records lives in one place: lifecycle events in
    the observer's :class:`~repro.obs.EventLog`, execution segments in
    one :class:`~repro.sim.trace.Trace` per core (:attr:`traces`, kept
    when ``record_trace`` is set or a checker is attached;
    :class:`~repro.mp.GlobalEngine` always keeps them), completions in
    the returned job list.
    """

    def __init__(
        self,
        workload: WorkloadTrace,
        scheduler: Scheduler,
        processor: Union[Processor, Sequence[Processor]],
        record_trace: bool = False,
        observer: Optional[Observer] = None,
        runtime: Optional["AdaptiveRuntime"] = None,
        checker: Optional["InvariantChecker"] = None,
    ):
        self.workload = workload
        self.scheduler = scheduler
        if isinstance(processor, Processor):
            self.cores: List[Processor] = [processor]
            #: Extra fields of per-core events, expanded only when observed.
            self._tags: List[Dict[str, int]] = [{}]
        else:
            self.cores = list(processor)
            self._tags = [{"core": k} for k in range(len(self.cores))]
        self.processor = self.cores[0]
        self.migrations = 0
        #: Core-stamping observer proxies for the per-core frequency
        #: decisions (FREQ_DECISION events carry ``core=k``).
        self._core_obs: Optional[List[_CoreObserver]] = (
            [_CoreObserver(observer, k) for k in range(len(self.cores))]
            if observer is not None and len(self.cores) > 1
            else None
        )
        self.observer = observer
        self.runtime = runtime
        self.checker = checker
        #: Execution timeline of each core (the checker's audit reads it).
        self.traces: Optional[List[Trace]] = (
            [Trace() for _ in self.cores]
            if record_trace or checker is not None
            else None
        )

    # ------------------------------------------------------------------
    def run(self) -> SimulationResult:
        """Execute the simulation; an attached checker then audits it."""
        result = self._execute()
        if self.checker is not None:
            self.checker.audit(result, self.observer)
        return result

    def _execute(self) -> SimulationResult:
        """Bind the checker and runtime, run the loop, pack the result.

        No audit: :meth:`run` adds it, and a partitioned run audits its
        combined result instead of each core's.  With an adaptive
        runtime attached the main loop is wrapped in ``try/finally`` so
        ``runtime.finalize()`` always restores the task allocations the
        runtime may have mutated — even when the run raises — keeping
        task sets safe to share across arms.
        """
        ck = self.checker
        if ck is not None:
            ck.bind(self.workload.taskset, self.processor, self.scheduler, self.observer)
        rt = self.runtime
        if rt is None:
            return self._result(self._run())
        rt.bind(
            self.workload.taskset,
            self.processor.scale,
            self.processor.model,
            self.scheduler,
            self.observer,
        )
        try:
            return self._result(self._run())
        finally:
            rt.finalize()

    def _result(self, jobs: List[Job]) -> SimulationResult:
        stats = self.processor.stats
        horizon = self.workload.horizon
        return SimulationResult(
            scheduler_name=self.scheduler.name,
            metrics=Metrics(self.workload.taskset, jobs, stats, horizon),
            processor_stats=stats,
            jobs=jobs,
            horizon=horizon,
            trace=self.traces[0] if self.traces is not None else None,
        )

    def _run(self) -> List[Job]:
        """Span-tracing shim around the dispatch loop.

        With a tracer attached the whole run nests under one
        ``engine.run`` root span (so phase self-times tile the measured
        wall-clock); without one this is a tail call — the disabled
        path stays exactly the loop it always was.
        """
        obs = self.observer
        sp = obs.spans if obs is not None else None
        if sp is None:
            return self._run_loop()
        sp.enter("engine.run")
        try:
            return self._run_loop()
        finally:
            sp.exit()

    def _run_loop(self) -> List[Job]:
        """The event loop; returns the job population in arrival order."""
        taskset: TaskSet = self.workload.taskset
        horizon = self.workload.horizon
        scheduler = self.scheduler
        cores = self.cores
        m = len(cores)
        multi = m > 1
        core_ids = range(m)
        tags = self._tags
        traces = self.traces

        # Observability: `obs is None` must stay the zero-cost default —
        # every instrumentation site below is guarded by one branch.
        obs = self.observer
        # Span tracing: `tracing` is hoisted once, so a detached tracer
        # costs one predictable branch per phase.
        sp = obs.spans if obs is not None else None
        tracing = sp is not None

        jobs: List[Job] = [
            Job(spec.task, spec.index, spec.release, spec.demand) for spec in self.workload
        ]
        n_jobs = len(jobs)
        arrival_idx = 0
        #: Release instants in arrival order — jobs[k].release hoisted so
        #: the event-search loop reads a list slot, not a property.
        releases: List[float] = [job.release for job in jobs]

        # Adaptive runtime and invariant checker (optional): the same
        # zero-cost-when-detached contract as `obs`.  The checker only
        # observes releases and decisions; the rest is audited after.
        ck = self.checker
        lc = JobLifecycle(taskset, scheduler, cores, obs, ck, self.runtime)
        ready = lc.ready
        deferred = lc.deferred

        t = 0.0
        event = SchedulingEvent.START
        #: Job executing on each core in the most recent segment
        #: (preemption detection).
        last_running: List[Optional[Job]] = [None] * m
        #: id(job) -> core the job last *executed* on (m > 1 only).
        last_exec_core: Dict[int, int] = {}
        #: Static half of the per-core residual views (m > 1 only),
        #: built at the first dispatch and dropped on reallocation.
        plan: Optional[ResidualPlan] = None
        #: Whether the per-core frequency step runs at all: only for a
        #: policy whose class overrides `decide_frequency` (the default
        #: keeps every selection-round frequency, so the step is a no-op).
        core_freq = multi and (
            type(scheduler).decide_frequency is not Scheduler.decide_frequency
        )
        # Progress guard: every iteration must either advance time or
        # change the job population; bound the zero-progress streak.
        stall_guard = 0
        max_stall = 4 * n_jobs + 64

        while True:
            advanced = False

            # --- release arrivals due now -----------------------------
            # Deferred re-releases (runtime `defer` policy) and fresh
            # arrivals drain through the same gate, `lc.release`; with no
            # runtime the heap stays empty and the gate is a straight admit.
            if tracing:
                sp.enter("engine.release")
            while True:
                job = lc.pop_due(t) if deferred else None
                if job is not None:
                    from_deferred = True
                elif arrival_idx < n_jobs and releases[arrival_idx] <= t + EPS_TIME:
                    job = jobs[arrival_idx]
                    arrival_idx += 1
                    from_deferred = False
                else:
                    break
                event = SchedulingEvent.ARRIVAL
                advanced = True
                verdict = lc.release(job, t, from_deferred)
                if obs is not None and (verdict is None or verdict.action == "admit"):
                    obs.inc("jobs_released", task=job.task.name)

            if tracing:
                sp.exit()  # engine.release
                sp.enter("engine.expiry")

            # --- raise termination exceptions -------------------------
            expired = lc.expire_overdue(t)
            if expired:
                event = SchedulingEvent.EXPIRY
                advanced = True
                if obs is not None:
                    for job in expired:
                        obs.inc("jobs_expired", task=job.task.name)

            if tracing:
                sp.exit()  # engine.expiry

            if t >= horizon - EPS_TIME:
                break

            # --- consult the scheduler ---------------------------------
            if tracing:
                sp.enter("engine.snapshot")
            # At m > 1 the shared view carries all m cores' worth of
            # demand, so any frequency computed over it is meaningless
            # for a single core (decideFreq pins to f_max).  The
            # selection round therefore runs with dvs=False — picks and
            # aborts are unaffected — and per-core frequencies are
            # decided afterwards over per-core residual views.
            view = lc.view(t, event, not multi)
            if obs is not None:
                obs.set_gauge("queue_depth", len(ready))
                obs.observe("queue_depth_samples", len(ready))
                obs.inc("scheduler_invocations", event=event.value)
            if tracing:
                sp.exit()  # engine.snapshot

            # --- dispatch: up to one pick per core ---------------------
            picks: List[Tuple[Job, float]] = []
            working = view
            for slot in core_ids:
                if tracing:
                    sp.enter("engine.decide")
                decision = scheduler.decide(working)
                if tracing:
                    sp.exit()  # engine.decide
                if ck is not None:
                    ck.on_decision(working, decision, scheduler)
                lc.apply(decision, t)
                if decision.aborts:
                    advanced = True
                    if obs is not None:
                        for job in decision.aborts:
                            obs.inc("jobs_aborted", task=job.task.name)
                picked = decision.job
                if picked is None:
                    break
                picks.append((picked, decision.frequency))
                if slot + 1 < m:
                    working = working.without([picked, *decision.aborts])

            # --- place picks on cores (affinity first) -----------------
            if multi:
                assigned: List[Optional[Tuple[Job, float]]] = [None] * m
                free = set(core_ids)
                for pick in picks:
                    k = last_exec_core.get(id(pick[0]), -1)
                    if k not in free:
                        k = min(free)
                    assigned[k] = pick
                    free.discard(k)
                if core_freq and picks:
                    if tracing:
                        sp.enter("engine.core_freq")
                    if plan is None:
                        plan = ResidualPlan(taskset)
                    self._decide_core_frequencies(
                        view, plan.views(ready, assigned), assigned
                    )
                    if tracing:
                        sp.exit()  # engine.core_freq
            else:
                assigned = picks if picks else [None]

            # Set each busy core's frequency; its predicted completion
            # instant follows from it, so the earliest is tracked here.
            running: List[Optional[Job]] = [None] * m
            t_complete = math.inf
            for k in core_ids:
                pick = assigned[k]
                if pick is None:
                    continue
                job, freq = pick
                running[k] = job
                cpu = cores[k]
                freq_before = cpu.frequency
                switch_overhead = cpu.set_frequency(freq)
                if switch_overhead > 0.0:
                    # Charge the DVS transition as stalled (non-executing)
                    # time, recorded as idle and clamped at the horizon;
                    # only a uniprocessor can have one (GlobalEngine
                    # rejects switch_time > 0).
                    t_stalled = min(horizon, t + switch_overhead)
                    cpu.idle(t_stalled - t)
                    if traces is not None:
                        traces[k].add_segment(t, t_stalled, None, cpu.frequency)
                    t = t_stalled
                if obs is not None and cpu.frequency != freq_before:
                    obs.emit(t, EventKind.FREQ_SWITCH, job.key,
                             frequency=cpu.frequency, previous=freq_before,
                             overhead=switch_overhead, **tags[k])
                    obs.inc("freq_switches")
                t_k = t + job.remaining_demand / cpu.frequency
                if t_k < t_complete:
                    t_complete = t_k

            if obs is not None:
                for k in core_ids:
                    job = running[k]
                    prev = last_running[k]
                    if job is prev:
                        continue
                    if (
                        prev is not None
                        and job is not None
                        and prev.status is JobStatus.PENDING
                    ):
                        obs.emit(t, EventKind.PREEMPT, prev.key,
                                 preempted_by=job.key, **tags[k])
                        obs.inc("preemptions")
                    if job is not None:
                        obs.emit(t, EventKind.DISPATCH, job.key,
                                 frequency=cores[k].frequency,
                                 remaining_budget=job.remaining_budget, **tags[k])
                        obs.inc("dispatches", task=job.task.name)

            # --- find the next event -----------------------------------
            if tracing:
                sp.enter("engine.advance")
            t_arrival = releases[arrival_idx] if arrival_idx < n_jobs else math.inf
            t_timer = lc.next_timer(t)
            t_next = min(horizon, t_arrival, t_timer, t_complete)
            if t_next < t:
                t_next = t  # coincident events; process without moving

            # --- advance ------------------------------------------------
            dt = t_next - t
            for k in core_ids:
                cpu = cores[k]
                job = running[k]
                if job is not None:
                    if multi and dt > 0.0:
                        prev_core = last_exec_core.get(id(job))
                        if prev_core is not None and prev_core != k:
                            self.migrations += 1
                            if obs is not None:
                                obs.emit(t, EventKind.MIGRATE, job.key,
                                         core=k, previous_core=prev_core)
                                obs.inc("migrations", task=job.task.name)
                        last_exec_core[id(job)] = k
                    job.executed += cpu.run(dt)
                else:
                    cpu.idle(dt)
                if traces is not None:
                    traces[k].add_segment(
                        t, t_next, job.key if job is not None else None, cpu.frequency
                    )
                if obs is not None and dt > 0.0:
                    obs.inc("cpu_residency_seconds", dt,
                            mhz=f"{cpu.frequency:g}",
                            state="busy" if job is not None else "idle")
            if obs is not None:
                last_running = running  # a fresh list every iteration
            if dt > 0.0:
                advanced = True
            t = t_next
            if tracing:
                sp.exit()  # engine.advance
                sp.enter("engine.complete")

            # --- completion --------------------------------------------
            for k in core_ids:
                job = running[k]
                if job is None or job.remaining_demand > EPS_CYCLES:
                    continue
                if lc.complete(job, t, **tags[k]):
                    plan = None  # c_i moved: the worst-fit order is stale
                if obs is not None:
                    obs.inc("jobs_completed", task=job.task.name)
                    obs.observe("sojourn_seconds", t - job.release)
                    last_running[k] = None
                event = SchedulingEvent.COMPLETION
                advanced = True

            if tracing:
                sp.exit()  # engine.complete

            if not advanced:
                stall_guard += 1
                if stall_guard > max_stall:
                    raise SimulationError(
                        f"no progress at t={t} (scheduler {scheduler.name!r} idles "
                        f"with {len(ready)} ready jobs and no future events)"
                    )
                # Nothing happened and nothing will: if no future events
                # exist and the scheduler idles, we are done early.
                if not picks and arrival_idx >= n_jobs and t_timer == math.inf:
                    break
            else:
                stall_guard = 0

        return jobs

    # ------------------------------------------------------------------
    def _decide_core_frequencies(
        self,
        view: SchedulerView,
        residuals: List[Optional[Tuple[TaskSet, List[Job]]]],
        assigned: List[Optional[Tuple[Job, float]]],
    ) -> None:
        """Per-core ``decideFreq`` over residual demand views (m > 1).

        The selection round ran over the shared view with ``dvs=False``
        (its m-core demand makes any single frequency meaningless).
        ``residuals`` holds each busy core's share of the task set and
        of the live ``ready`` list (see :meth:`ResidualPlan.views`);
        each assigned core gets ``scheduler.decide_frequency`` over it.
        ``None`` keeps the selection-round frequency (fixed-frequency
        policies).

        ``assigned`` is updated in place.  Job selection is untouched —
        only operating frequencies change, which is why m = 1 (this
        method never runs) is the plain uniprocessor dispatch.
        """
        scheduler = self.scheduler
        core_obs = self._core_obs
        for k, residual in enumerate(residuals):
            if residual is None:
                continue
            sub_taskset, sub_ready = residual
            job = assigned[k][0]
            sub_view = SchedulerView(
                time=view.time,
                ready=sub_ready,
                taskset=sub_taskset,
                scale=view.scale,
                energy_model=view.energy_model,
                event=view.event,
                arrivals_in_window=view._arrivals_in_window,
                energy_consumed=view.energy_consumed,
            )
            if core_obs is not None:
                scheduler.bind_observer(core_obs[k])
            try:
                freq = scheduler.decide_frequency(sub_view, job)
            finally:
                if core_obs is not None:
                    scheduler.bind_observer(self.observer)
            if freq is not None:
                assigned[k] = (job, freq)


class ResidualPlan:
    """The run-static half of global dispatch's per-core residual views.

    At every m > 1 decision point the task set is split per core: each
    dispatched job's task is pinned to its core, and the remaining
    tasks are distributed worst-fit by density in the offline
    partitioner's order (:func:`repro.mp.partition.partition_taskset`:
    density desc, utility-per-cycle desc, index), so every busy core
    prices roughly ``1/m`` of the background demand instead of all of
    it.  Only the pins change between events; the order, each task's
    ``C_i/D_i`` and the sub-task-set of each member combination are
    fixed while the allocations are, so they are computed here once.
    :meth:`~repro.sim.task.Task.reallocate` moves both sort keys, so
    the engine drops its plan whenever an adaptive runtime reallocates.
    """

    __slots__ = ("tasks", "mff", "order", "index", "subsets")

    def __init__(self, taskset: TaskSet):
        tasks = list(taskset)
        self.tasks = tasks
        #: ``C_i / D_i`` per task index (the worst-fit weight).
        self.mff: List[float] = [task.min_feasible_frequency for task in tasks]
        mff = self.mff
        #: Task indices in worst-fit placement order.
        self.order: List[int] = sorted(
            range(len(tasks)),
            key=lambda i: (-mff[i], -(tasks[i].tuf.max_utility / tasks[i].allocation), i),
        )
        #: ``id(task)`` -> task index (finds each core's pinned task).
        self.index: Dict[int, int] = {id(task): i for i, task in enumerate(tasks)}
        #: Sorted member indices -> (sub-task-set, ids of its tasks).
        self.subsets: Dict[Tuple[int, ...], Tuple[TaskSet, frozenset]] = {}

    def partition(self, assigned: Sequence[Optional[Tuple[Job, float]]]) -> List[List[int]]:
        """Member task indices of every core, in placement order.

        A busy core starts with its dispatched job's task — a task
        picked on several cores at once (several pending jobs of one
        task) is pinned to each, so every core's own dispatch is always
        covered by its view's task set.  Each remaining task then goes
        to the least-loaded core, idle ones included; ties go to the
        lowest core index.
        """
        m = len(assigned)
        mff = self.mff
        index = self.index
        loads = [0.0] * m
        members: List[List[int]] = [[] for _ in range(m)]
        pinned = set()
        for k in range(m):
            pick = assigned[k]
            if pick is not None:
                i = index[id(pick[0].task)]
                pinned.add(i)
                members[k].append(i)
                loads[k] = mff[i]
        for i in self.order:
            if i in pinned:
                continue
            best = 0
            low = loads[0]
            for q in range(1, m):
                if loads[q] < low:
                    best = q
                    low = loads[q]
            members[best].append(i)
            loads[best] = low + mff[i]
        return members

    def views(
        self,
        ready: List[Job],
        assigned: Sequence[Optional[Tuple[Job, float]]],
    ) -> List[Optional[Tuple[TaskSet, List[Job]]]]:
        """Each busy core's ``(sub-task-set, residual ready list)``.

        The residual ready list is the core's task share out of the
        live ``ready`` list (which no longer holds this event's
        aborts), minus jobs dispatched on other cores.  Idle cores get
        ``None``.
        """
        subsets = self.subsets
        tasks = self.tasks
        dispatched = {id(pick[0]) for pick in assigned if pick is not None}
        out: List[Optional[Tuple[TaskSet, List[Job]]]] = []
        for k, members in enumerate(self.partition(assigned)):
            pick = assigned[k]
            if pick is None:
                out.append(None)
                continue
            key = tuple(sorted(members))
            subset = subsets.get(key)
            if subset is None:
                subset = subsets[key] = (
                    TaskSet(tasks[i] for i in key),
                    frozenset(id(tasks[i]) for i in key),
                )
            sub_taskset, ids = subset
            own = pick[0]
            out.append((
                sub_taskset,
                [
                    j
                    for j in ready
                    if id(j.task) in ids and (j is own or id(j) not in dispatched)
                ],
            ))
        return out
