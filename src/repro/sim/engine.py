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

Cores
-----
The loop runs over a list of ``m`` processors sharing one ready queue.
Dispatch is the only step that depends on ``m``: ``decide`` is called
once per core over residual views (``view.without(...)``) until the
policy idles, so at ``m = 1`` it is exactly one call.  With ``m > 1``
the picks are placed affinity-first (a job resumes on the core it last
ran on when that core is free; other moves count as migrations) and
each busy core then gets its own frequency decision over a per-core
residual view.  Built over a single :class:`~repro.cpu.Processor` the
engine is the uniprocessor; built over a list it tags every per-core
event with ``core=k`` (see :class:`repro.mp.GlobalEngine`).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple, Union

from ..cpu import EnergyModel, FrequencyScale, Processor, ProcessorStats
from ..obs import EventKind, Observer
from .clock import Clock, as_clock
from .scheduler import ArrivalWindow, Scheduler, SchedulerView, SchedulingEvent
from .job import Job, JobStatus
from .metrics import Metrics
from .task import TaskSet
from .trace import Trace
from .workload import WorkloadTrace

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (runtime imports sim)
    from ..check import InvariantChecker
    from ..runtime import AdaptiveRuntime

__all__ = ["Engine", "SimulationResult", "SimulationError", "build_view"]

#: Cycle tolerance: a job with fewer remaining Mcycles is complete.
EPS_CYCLES = 1e-9
#: Time tolerance for event coincidence.
EPS_TIME = 1e-12


class SimulationError(RuntimeError):
    """Raised when the engine detects an inconsistent run."""


class _ArrivalLog:
    """Append-only release log of one task with a trailing-window head.

    The UAM window is trimmed by advancing ``head`` (:func:`build_view`)
    — entries are never removed, so an
    :class:`~repro.sim.scheduler.ArrivalWindow` snapshot handed to a
    :class:`SchedulerView` stays valid after the engine moves on.
    ``snap`` caches the current window's snapshot; it is invalidated on
    append and on trim so unchanged windows are shared between
    consecutive decision points instead of re-copied.
    """

    __slots__ = ("data", "head", "snap")

    def __init__(self) -> None:
        self.data: List[float] = []
        self.head = 0
        self.snap: Optional[ArrivalWindow] = None

    def append(self, release: float) -> None:
        self.data.append(release)
        self.snap = None


#: Snapshot recipe of one task: (release log, task name, UAM window).
WindowSpec = Tuple[_ArrivalLog, str, float]


def build_view(
    t: float,
    ready: List[Job],
    taskset: TaskSet,
    window_specs: List[WindowSpec],
    event: SchedulingEvent,
    scale: FrequencyScale,
    energy_model: EnergyModel,
    energy_consumed: float = 0.0,
    dvs: bool = True,
) -> SchedulerView:
    """Build the scheduler-visible snapshot for one decision point.

    ``window_specs`` is the hoisted per-task recipe, so each decision's
    trim-and-window pass (inlined: it runs once per task per decision)
    reads locals instead of chasing attribute chains.  ``ready`` is the
    caller's *live* list — it is mutated in place by the post-decision
    abort pass and the completion handler.
    :class:`SchedulerView` copies it on construction, so a view
    retained by an observer, checker, or scheduler stays
    membership-stable after the caller moves on; the regression suite
    pins this.  Per-task arrival windows are
    :class:`~repro.sim.scheduler.ArrivalWindow` snapshots over the
    append-only release logs — equally stable, without per-decision
    list copies.
    """
    counts: Dict[str, ArrivalWindow] = {}
    for log, name, window in window_specs:
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
    return SchedulerView(
        time=t,
        ready=ready,
        taskset=taskset,
        scale=scale,
        energy_model=energy_model,
        event=event,
        arrivals_in_window=counts,
        energy_consumed=energy_consumed,
        dvs=dvs,
    )


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
        clock: Union[None, str, Clock] = None,
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
        #: Time source.  ``None``/``"sim"`` keep discrete-event jumps;
        #: a non-virtual clock (``"wall"``) makes the loop *wait* for
        #: each event instant before applying it (see repro.sim.clock).
        self.clock = as_clock(clock)
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
        cpu0 = cores[0]
        scale, energy_model = cpu0.scale, cpu0.model

        # Observability: `obs is None` must stay the zero-cost default —
        # every instrumentation site below is guarded by one branch.
        obs = self.observer
        if obs is not None:
            scheduler.bind_observer(obs)
        # Span tracing: `tracing` is hoisted once, so a detached tracer
        # costs one predictable branch per phase.
        sp = obs.spans if obs is not None else None
        tracing = sp is not None

        scheduler.setup(taskset, scale, energy_model)

        jobs: List[Job] = [
            Job(spec.task, spec.index, spec.release, spec.demand) for spec in self.workload
        ]
        n_jobs = len(jobs)
        arrival_idx = 0
        #: Release instants in arrival order — jobs[k].release hoisted so
        #: the event-search loop reads a list slot, not a property.
        releases: List[float] = [job.release for job in jobs]
        ready: List[Job] = []
        recent_arrivals: Dict[str, _ArrivalLog] = {t.name: _ArrivalLog() for t in taskset}
        window_specs: List[WindowSpec] = [
            (recent_arrivals[task.name], task.name, task.uam.window) for task in taskset
        ]

        # Adaptive runtime (optional): deferred re-releases wait here,
        # ordered by their granted release instant (seq breaks ties —
        # jobs are not comparable).
        rt = self.runtime
        # Invariant checker (optional): observe-only release and decision
        # hooks, same zero-cost-when-detached contract as `obs` and `rt`;
        # everything else it checks is audited after the run.
        ck = self.checker
        # Real-time driver (optional): with a non-virtual clock attached
        # the loop waits for each event instant (arrival, predicted
        # completion, termination deadline) before applying it.  The
        # virtual path adds exactly one boolean branch per iteration —
        # no new float operations — so sim runs stay bit-identical.
        clk = self.clock
        realtime = clk is not None and not clk.virtual
        if clk is not None:
            clk.start()
        deferred_heap: List[Tuple[float, int, Job]] = []
        deferred_seq = 0

        t = 0.0
        event = SchedulingEvent.START
        #: Job executing on each core in the most recent segment
        #: (preemption detection).
        last_running: List[Optional[Job]] = [None] * m
        #: id(job) -> core the job last *executed* on (m > 1 only).
        last_exec_core: Dict[int, int] = {}
        # Progress guard: every iteration must either advance time or
        # change the job population; bound the zero-progress streak.
        stall_guard = 0
        max_stall = 4 * n_jobs + 64

        while True:
            advanced = False

            # --- release arrivals due now -----------------------------
            # Deferred re-releases (runtime `defer` policy) and fresh
            # arrivals drain through the same gate; with no runtime the
            # heap stays empty and the gate is a straight admit.
            if tracing:
                sp.enter("engine.release")
            while True:
                if deferred_heap and deferred_heap[0][0] <= t + EPS_TIME:
                    job = heapq.heappop(deferred_heap)[2]
                    from_deferred = True
                elif arrival_idx < n_jobs and releases[arrival_idx] <= t + EPS_TIME:
                    job = jobs[arrival_idx]
                    arrival_idx += 1
                    from_deferred = False
                else:
                    break
                event = SchedulingEvent.ARRIVAL
                advanced = True
                if rt is not None:
                    verdict = rt.on_arrival(job, t, ready, deferred=from_deferred)
                    if verdict.action == "shed":
                        job.status = JobStatus.SHED
                        job.abort_time = t
                        continue
                    if verdict.action == "defer":
                        job.release = verdict.release
                        heapq.heappush(deferred_heap, (job.release, deferred_seq, job))
                        deferred_seq += 1
                        continue
                    for victim in verdict.evictions:
                        victim.status = JobStatus.SHED
                        victim.abort_time = t
                        ready.remove(victim)
                ready.append(job)
                recent_arrivals[job.task.name].append(job.release)
                if ck is not None:
                    ck.on_release(job, t)
                if obs is not None:
                    obs.emit(t, EventKind.RELEASE, job.key,
                             release=job.release, termination=job.termination)
                    obs.inc("jobs_released", task=job.task.name)

            if tracing:
                sp.exit()  # engine.release
                sp.enter("engine.expiry")

            # --- raise termination exceptions -------------------------
            if scheduler.abort_expired:
                t_eps = t + EPS_TIME
                expired: List[Job] = []
                for j in ready:
                    if j.termination <= t_eps and j.task.abortable:
                        expired.append(j)
                for job in expired:
                    job.status = JobStatus.EXPIRED
                    job.abort_time = t
                    ready.remove(job)
                    if obs is not None:
                        obs.emit(t, EventKind.EXPIRE, job.key,
                                 executed=job.executed, demand=job.demand)
                        obs.inc("jobs_expired", task=job.task.name)
                    event = SchedulingEvent.EXPIRY
                    advanced = True

            if tracing:
                sp.exit()  # engine.expiry

            if t >= horizon - EPS_TIME:
                break

            # --- consult the scheduler ---------------------------------
            if tracing:
                sp.enter("engine.snapshot")
            if multi:
                energy = 0.0
                for cpu in cores:
                    energy += cpu.stats.total_energy
            else:
                energy = cpu0.stats.total_energy
            # At m > 1 the shared view carries all m cores' worth of
            # demand, so any frequency computed over it is meaningless
            # for a single core (decideFreq pins to f_max).  The
            # selection round therefore runs with dvs=False — picks and
            # aborts are unaffected — and per-core frequencies are
            # decided afterwards over per-core residual views.
            view = build_view(t, ready, taskset, window_specs, event,
                              scale, energy_model, energy, not multi)
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
                for job in decision.aborts:
                    if job.is_finished:
                        raise SimulationError(f"scheduler aborted finished job {job.key}")
                    job.status = JobStatus.ABORTED
                    job.abort_time = t
                    if job in ready:
                        ready.remove(job)
                    if obs is not None:
                        obs.emit(t, EventKind.ABORT, job.key,
                                 executed=job.executed, budget=job.allocated)
                        obs.inc("jobs_aborted", task=job.task.name)
                    advanced = True
                picked = decision.job
                if picked is None:
                    break
                if picked not in ready:
                    raise SimulationError(
                        f"scheduler selected non-ready job {picked.key}"
                    )
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
                if picks:
                    if tracing:
                        sp.enter("engine.decide")
                    self._decide_core_frequencies(view, ready, assigned)
                    if tracing:
                        sp.exit()  # engine.decide
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
            if deferred_heap:
                t_arrival = min(t_arrival, deferred_heap[0][0])
            t_term = math.inf
            if scheduler.abort_expired:
                t_eps = t + EPS_TIME
                for j in ready:
                    j_term = j.termination
                    if j_term < t_term and j_term > t_eps and j.task.abortable:
                        t_term = j_term
            t_next = min(horizon, t_arrival, t_term, t_complete)
            if t_next < t:
                t_next = t  # coincident events; process without moving
            if realtime:
                # Deadline timer: block until the event instant passes
                # on the wall clock (lag lands in clk.drift), then apply
                # exactly the simulated state change.
                clk.wait_until(t_next)

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
                job.status = JobStatus.COMPLETED
                job.completion_time = t
                job.accrued_utility = job.utility_at(t)
                ready.remove(job)
                scheduler.on_completion(job, t)
                if rt is not None:
                    rt.on_completion(job, t)
                if obs is not None:
                    obs.emit(t, EventKind.COMPLETE, job.key,
                             utility=job.accrued_utility,
                             sojourn=t - job.release, **tags[k])
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
                if (
                    not picks
                    and arrival_idx >= n_jobs
                    and not deferred_heap
                    and (t_term is math.inf)
                ):
                    break
            else:
                stall_guard = 0

        return jobs

    # ------------------------------------------------------------------
    def _decide_core_frequencies(
        self,
        view: SchedulerView,
        ready: List[Job],
        assigned: List[Optional[Tuple[Job, float]]],
    ) -> None:
        """Per-core ``decideFreq`` over residual demand views (m > 1).

        The selection round ran over the shared view with ``dvs=False``
        (its m-core demand makes any single frequency meaningless).
        Here the taskset is split per core: each picked job's task is
        pinned to its core, and the remaining tasks are distributed
        worst-fit by density using the same deterministic ordering as
        the offline partitioner, so every busy core prices roughly
        ``1/m`` of the background demand instead of all of it.  Each
        assigned core then gets ``scheduler.decide_frequency`` over its
        residual view: its own dispatch plus its task share out of the
        live ``ready`` list (which no longer holds this event's
        aborts), minus jobs dispatched elsewhere.  ``None`` keeps the
        selection-round frequency (fixed-frequency policies).

        ``assigned`` is updated in place.  Job selection is untouched —
        only operating frequencies change, which is why m = 1 (this
        method never runs) is the plain uniprocessor dispatch.
        """
        scheduler = self.scheduler
        taskset = view.taskset
        m = len(assigned)

        # A task picked on several cores at once (rare: multiple pending
        # jobs of one task) is pinned to each, so every core's own
        # dispatch is always covered by its view's taskset.
        pinned: Dict[int, List[int]] = {}
        for k in range(m):
            pick = assigned[k]
            if pick is not None:
                pinned.setdefault(id(pick[0].task), []).append(k)

        loads = [0.0] * m
        members: List[List[int]] = [[] for _ in range(m)]
        rest: List[int] = []
        for i, task in enumerate(taskset):
            cores_of_task = pinned.get(id(task))
            if cores_of_task is None:
                rest.append(i)
                continue
            for k in cores_of_task:
                members[k].append(i)
                loads[k] += task.min_feasible_frequency
        # Same ordering key as repro.mp.partition.partition_taskset:
        # density desc, utility-per-cycle desc, index — deterministic.
        rest.sort(
            key=lambda i: (
                -taskset[i].min_feasible_frequency,
                -(taskset[i].tuf.max_utility / taskset[i].allocation),
                i,
            )
        )
        for i in rest:
            k = min(range(m), key=lambda q: (loads[q], q))
            members[k].append(i)
            loads[k] += taskset[i].min_feasible_frequency

        core_obs = self._core_obs
        for k in range(m):
            pick = assigned[k]
            if pick is None:
                continue
            job = pick[0]
            subset = sorted(members[k])
            subset_ids = {id(taskset[i]) for i in subset}
            elsewhere = {
                id(p[0]) for q, p in enumerate(assigned) if p is not None and q != k
            }
            sub_view = SchedulerView(
                time=view.time,
                ready=[
                    j
                    for j in ready
                    if id(j.task) in subset_ids and id(j) not in elsewhere
                ],
                taskset=TaskSet(taskset[i] for i in subset),
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
