"""EUA* — the Energy-efficient Utility Accrual scheduler (Algorithm 1).

At every scheduling event EUA*:

1. updates each job's remaining budget (the engine tracks executed
   cycles, so budgets are implicit — lines 5–8);
2. aborts individually infeasible jobs (line 10);
3. computes each remaining job's **UER** at ``f_m``:
   ``U_J(t + c/f_m) / (E(f_m) · c)`` with ``c`` the remaining budget
   (line 11);
4. builds a critical-time-ordered schedule ``σ`` by inserting jobs in
   non-increasing UER order, keeping only insertions that leave ``σ``
   feasible at ``f_m`` (lines 12–18);
5. dispatches the head of ``σ`` at the frequency chosen by
   ``decideFreq()`` (lines 19–21).

Design note — the insertion loop's ``else break``: the scanned listing
is ambiguous about whether an *infeasible insertion* breaks the loop or
only a non-positive UER does.  Breaking on UER <= 0 is sound (jobs are
sorted, the rest cannot be positive) while breaking on infeasibility
would discard all lower-UER jobs whenever one long job fails to fit —
harmful and not an optimisation — so we skip infeasible insertions and
continue, matching the behaviour of the authors' companion algorithms
(GUS / the EMSOFT'04 EUA).  ``strict_insertion_break=True`` restores
the literal reading for ablation.

Ablation knobs (see DESIGN.md AB1–AB4): ``ordering`` may be ``"uer"``
(the paper) or ``"utility_density"`` (energy-oblivious UA ordering);
``use_dvs=False`` pins ``f_m``; ``use_fopt_bound=False`` drops the
``f°`` raise in ``decideFreq``; ``abort_infeasible=False`` leaves
infeasible jobs to expire on their own.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Dict, List, Optional, Tuple

from ..obs import EventKind
from ..sim.scheduler import Decision, Scheduler, SchedulerView
from ..sim.job import Job
from ..sim.task import TaskSet
from ..cpu import EnergyModel, FrequencyScale
from ..tuf import StepTUF
from .decide_freq import decide_freq
from .feasibility import (
    IncrementalSchedule,
    insert_by_critical_time,
    job_feasible,
    schedule_feasible,
)
from .offline import MIN_UER_CYCLES, TaskParams, offline_computing

__all__ = ["EUAStar", "job_uer", "job_uer_reference"]


def job_uer(job: Job, now: float, f_max: float, model: EnergyModel) -> float:
    """Line 11: the job's utility-and-energy ratio at ``f_m``.

    Uses the *remaining* budget: a nearly finished job is nearly free,
    so its UER rises as it executes.

    Hot-path kernel: called once per feasible ready job per decision,
    so the ``remaining_budget`` / ``utility_at`` indirections are
    inlined (same float expressions in the same order — bit-identical
    to :func:`job_uer_reference`).  It must stay a module-level
    function resolved at call time: the mutation harness
    (``repro.check.mutations``) swaps it out to prove the test battery
    notices a flipped metric.
    """
    task = job.task
    alloc = task._allocation  # the allocation property's cache slot
    c = (task.allocation if alloc is None else alloc) - job.executed
    if c < MIN_UER_CYCLES:  # max(remaining_budget, MIN_UER_CYCLES), MIN > 0
        c = MIN_UER_CYCLES
    # job.utility_at(now + c / f_max)
    utility = task.tuf.utility((now + c / f_max) - job._release)
    return utility / (model.energy_per_cycle(f_max) * c)


def job_uer_reference(job: Job, now: float, f_max: float, model: EnergyModel) -> float:
    """Straight-line UER transliteration — the differential-test oracle
    for the kernel form of :func:`job_uer`."""
    c = max(job.remaining_budget, MIN_UER_CYCLES)
    utility = job.utility_at(now + c / f_max)
    return utility / (model.energy_per_cycle(f_max) * c)


def _utility_density(job: Job, now: float, f_max: float, model: EnergyModel) -> float:
    """The energy-oblivious ranking key of the AB1 ablation
    (``ordering="utility_density"``)."""
    c = max(job.remaining_budget, MIN_UER_CYCLES)
    return job.utility_at(now + c / f_max) / c


#: A kept step-TUF ranking is reused strictly before its job's latest
#: constant-UER instant less this share of ``max(1, termination)``:
#: far above the few ulps the UER and feasibility expressions round by.
_KEEP_MARGIN = 1e-9


class _KeptRank:
    """EUA*'s ``(aborts, skipped, ranked)`` kept across the decisions of
    one run over a task set whose every TUF is a step (see
    :meth:`EUAStar._rank`).

    ``stamps`` maps each kept job to ``(executed, allocation, release,
    valid_until, neg, seq)``: the state it was ranked at, the instant
    before which that ranking still holds, its negated UER (``None``
    for an individually infeasible job) and its admission number.
    ``ranked`` is in sort-key order ``(-uer, critical_time, release,
    index, seq)`` and ``negs`` holds each entry's ``-uer``, for bisection.
    """

    __slots__ = ("uer", "time", "stamps", "negs", "ranked", "seq")

    def __init__(self):
        # The module global at build time: the mutation harness swaps
        # ``job_uer``, and a swap must start the rank over.
        self.uer = job_uer
        self.time = -math.inf
        self.stamps: Dict[Job, tuple] = {}
        self.negs: List[float] = []
        self.ranked: List[Tuple[float, float, Job]] = []
        self.seq = 0

    def current(self, t: float) -> bool:
        """Whether this rank may serve a decision at ``t``."""
        return t >= self.time and job_uer is self.uer

    def _remove(self, job: Job, neg: float) -> None:
        negs, ranked = self.negs, self.ranked
        i = bisect_left(negs, neg)
        while ranked[i][2] is not job:  # past entries of equal UER
            i += 1
        del negs[i]
        del ranked[i]

    def _insert(self, job: Job, uer: float, stamp: tuple) -> None:
        """Place ``job`` by its key; ``stamp`` is its new stamp."""
        negs, ranked, stamps = self.negs, self.ranked, self.stamps
        neg = stamp[4]
        i = bisect_left(negs, neg)
        if i < len(negs) and negs[i] == neg:  # a UER tie: the rest of the key
            rest = (job.critical_time, stamp[2], job.index, stamp[5])
            while i < len(negs) and negs[i] == neg:
                crit, other = ranked[i][1], ranked[i][2]
                kept = stamps[other]
                if (crit, kept[2], other.index, kept[5]) > rest:
                    break
                i += 1
        negs.insert(i, neg)
        ranked.insert(i, (uer, job.critical_time, job))

    def update(self, ready: List[Job], t: float, f_m: float, model: EnergyModel,
               abort_infeasible: bool):
        """The rank at ``t`` over ``ready``, or ``None`` when ``ready``
        is not in admission order (the caller then starts over).

        Only jobs that are new, changed (executed cycles, allocation or
        release) or past their valid-until instant are ranked afresh;
        the rest keep their verdict and key.  A feasible step-TUF job's
        UER ``height / (E(f_m) · max(c, MIN_UER_CYCLES))`` and its
        feasibility hold until ``termination − c/f_m``, and an
        infeasible job stays infeasible as time only grows.
        """
        self.time = t
        stamps = self.stamps
        # Popped as ready is walked: what is left are the jobs that left.
        gone = stamps.copy()
        pop = gone.pop
        aborts: List[Job] = []
        skipped: List[Job] = []
        last = -1
        for job in ready:
            stamp = pop(job, None)
            if stamp is None:
                seq = last = self.seq
                self.seq = seq + 1
            else:
                seq = stamp[5]
                if seq < last:
                    return None
                last = seq
                # Identity, not equality: a stamp holds the very floats it
                # saw, and an equal float reassigned only costs a re-rank.
                if (t < stamp[3] and stamp[0] is job.executed
                        and stamp[1] is job.task._allocation and stamp[2] is job._release):
                    if stamp[4] is None:
                        skipped.append(job)
                        if abort_infeasible and job.task.abortable:
                            aborts.append(job)
                    continue
                if stamp[4] is not None:
                    self._remove(job, stamp[4])
            task = job.task
            if not job_feasible(job, t, f_m):
                stamps[job] = (job.executed, task._allocation, job._release, math.inf,
                               None, seq)
                skipped.append(job)
                if abort_infeasible and task.abortable:
                    aborts.append(job)
                continue
            uer = self.uer(job, t, f_m, model)
            executed = job.executed
            alloc = task._allocation
            release = job._release
            if t >= release:
                c = alloc - executed
                if c < MIN_UER_CYCLES:
                    c = MIN_UER_CYCLES
                term = job.termination  # > 0: release >= 0 and X > 0
                until = term - c / f_m - _KEEP_MARGIN * (term if term > 1.0 else 1.0)
            else:  # a deferred release admitted a hair early: rank it each time
                until = -math.inf
            stamp = stamps[job] = (executed, alloc, release, until, -uer, seq)
            self._insert(job, uer, stamp)
        for job, stamp in gone.items():
            del stamps[job]
            if stamp[4] is not None:
                self._remove(job, stamp[4])
        return aborts, skipped, self.ranked


class EUAStar(Scheduler):
    """The paper's contribution. See module docstring."""

    #: Fewest ready jobs the kept rank serves; smaller sets get the full
    #: pass.  Between two decisions up to m jobs run, and re-keying one
    #: costs about 2.5 times ranking it afresh (four of about twelve on
    #: four cores make the kept rank the slower of the two), so a small
    #: ready set gains nothing from being kept.
    _keep_min_ready = 32

    def __init__(
        self,
        name: str = "EUA*",
        use_dvs: bool = True,
        use_fopt_bound: bool = True,
        abort_infeasible: bool = True,
        ordering: str = "uer",
        strict_insertion_break: bool = False,
        dvs_method: str = "lookahead",
        incremental: bool = True,
    ):
        if ordering not in ("uer", "utility_density"):
            raise ValueError(f"unknown ordering {ordering!r}")
        if dvs_method not in ("demand", "lookahead"):
            raise ValueError(f"unknown dvs_method {dvs_method!r}")
        self.name = name
        self.use_dvs = bool(use_dvs)
        self.use_fopt_bound = bool(use_fopt_bound)
        self.abort_infeasible = bool(abort_infeasible)
        self.ordering = ordering
        self.strict_insertion_break = bool(strict_insertion_break)
        self.dvs_method = dvs_method
        #: ``False`` rebuilds σ with the naive reference feasibility
        #: functions — the oracle arm of the differential test harness.
        #: Both paths are decision-for-decision bit-identical.
        self.incremental = bool(incremental)
        self._params: Dict[str, TaskParams] = {}
        #: Whether :meth:`_rank` keeps its rank between decisions (set
        #: by :meth:`setup`), and the kept rank itself.
        self._keeps_rank = False
        self._kept: Optional[_KeptRank] = None

    # ------------------------------------------------------------------
    def setup(self, taskset: TaskSet, scale: FrequencyScale, energy_model: EnergyModel) -> None:
        """``offlineComputing(T)`` (line 3)."""
        self._params = offline_computing(taskset, scale, energy_model)
        self._keeps_rank = (self.incremental and self.ordering == "uer"
                            and all(type(task.tuf) is StepTUF for task in taskset))
        self._kept = None

    @property
    def params(self) -> Dict[str, TaskParams]:
        """Per-task offline parameters (read-only use by analyses)."""
        return dict(self._params)

    # ------------------------------------------------------------------
    def decide(self, view: SchedulerView) -> Decision:
        t = view.time
        f_m = view.scale.f_max
        obs = self.observer
        # Span tracing: hoisted once per decide, like the engine's spans.
        sp = obs.spans if obs is not None else None
        if sp is not None:
            sp.enter("core.eua_construct")

        aborts, skipped, ranked = self._rank(view, t, f_m)
        if obs is not None:
            for job in skipped:
                obs.emit(t, EventKind.REJECT, job.key, source=self.name,
                         reason="individually-infeasible")
                obs.inc("sigma_rejections", reason="individually-infeasible")

        ranked = self._candidates(view, ranked)
        if self.incremental:
            head = self._build_sigma_incremental(ranked, t, f_m, obs, sp)
        else:
            head = self._build_sigma_reference(ranked, t, f_m, obs, sp)
        if sp is not None:
            sp.exit()  # core.eua_construct

        if head is None:
            return Decision(job=None, frequency=f_m, aborts=tuple(aborts))
        if self.use_dvs and view.dvs:
            working_view = view.without(aborts) if aborts else view
            if sp is not None:
                sp.enter("core.eua_decide_freq")
            f_exe = decide_freq(
                working_view,
                head,
                self._params,
                use_fopt_bound=self.use_fopt_bound,
                method=self.dvs_method,
                observer=obs,
                source=self.name,
            )
            if sp is not None:
                sp.exit()  # core.eua_decide_freq
        else:
            f_exe = f_m
        return Decision(job=head, frequency=f_exe, aborts=tuple(aborts))

    def decide_frequency(self, view: SchedulerView, job: Job) -> Optional[float]:
        """Per-core ``decideFreq()`` for the global multicore engine.

        ``view`` is the engine's per-core residual view — the core's
        dispatched ``job`` plus that core's deterministic share of the
        other tasks' demand — so Algorithm 2's single-processor rate
        computation applies as-is.  Returns ``None`` with DVS ablated
        (``use_dvs=False``), pinning ``f_m`` exactly like the
        uniprocessor path.
        """
        if not self.use_dvs:
            return None
        return decide_freq(
            view,
            job,
            self._params,
            use_fopt_bound=self.use_fopt_bound,
            method=self.dvs_method,
            observer=self.observer,
            source=self.name,
        )

    # ------------------------------------------------------------------
    def _rank(
        self, view: SchedulerView, t: float, f_m: float
    ) -> Tuple[List[Job], List[Job], List[Tuple[float, float, Job]]]:
        """Lines 10–11 and the UER sort: ``(aborts, skipped, ranked)``.

        ``skipped`` holds the individually infeasible jobs in ready
        order, ``aborts`` the ones among them to abort; ``ranked`` holds
        ``(metric, critical_time, job)`` for the rest, by non-increasing
        metric, then earlier critical time, then release order.

        Done once per scheduling event: the lists are stored in the
        view's :attr:`~repro.sim.scheduler.SchedulerView.memo` with the
        view they were made for, and a view derived by ``without()``
        filters them by its own membership.  Same instant and job
        states give the same metrics, and the sort key is total up to
        ready order, which ``without()`` keeps, so this equals a fresh
        pass.  A derived view holding jobs the stored lists lack gets a
        fresh pass.

        Across events, with every task's TUF a step, the UER ordering
        of the incremental path and at least :attr:`_keep_min_ready`
        ready jobs, the rank is kept between decisions
        (:class:`_KeptRank`): only new jobs, jobs that ran or
        were reallocated, and jobs past their valid-until instant are
        ranked afresh.  An admission number stands in for the stable
        sort's ready-order tiebreak.  The kept rank starts over on
        :meth:`setup`, when time goes backwards and when ``job_uer`` is
        swapped.  ``incremental=False`` keeps the full pass: the oracle.
        """
        memo = view.memo
        entry = memo.get(self)
        ready = view.ready
        if entry is not None and entry[0] != id(view):
            keep = set(ready)
            skipped = [j for j in entry[2] if j in keep]
            ranked = [e for e in entry[3] if e[2] in keep]
            if len(skipped) + len(ranked) == len(ready):
                aborts = [j for j in entry[1] if j in keep]
                memo[self] = (id(view), aborts, skipped, ranked)
                return aborts, skipped, ranked
        elif self._keeps_rank and len(ready) >= self._keep_min_ready:
            args = (ready, t, f_m, view.energy_model, self.abort_infeasible)
            kept = self._kept
            if kept is None or not kept.current(t):
                kept = self._kept = _KeptRank()
            result = kept.update(*args)
            if result is None:  # ready out of admission order: start over
                self._kept = _KeptRank()
                result = self._kept.update(*args)
            memo[self] = (id(view), *result)
            return result

        model = view.energy_model
        abort_infeasible = self.abort_infeasible
        # Resolved per pass, not at import: the mutation harness swaps
        # the module-level ``job_uer``.
        metric_of = job_uer if self.ordering == "uer" else _utility_density
        aborts: List[Job] = []
        skipped: List[Job] = []
        ranked: List[Tuple[float, float, Job]] = []
        for job in ready:
            if not job_feasible(job, t, f_m):
                if abort_infeasible and job.task.abortable:
                    aborts.append(job)
                skipped.append(job)
                continue
            ranked.append((metric_of(job, t, f_m, model), job.critical_time, job))
        ranked.sort(key=lambda e: (-e[0], e[1], e[2].release, e[2].index))
        memo[self] = (id(view), aborts, skipped, ranked)
        return aborts, skipped, ranked

    def _build_sigma_incremental(
        self,
        ranked: List[Tuple[float, float, Job]],
        t: float,
        f_m: float,
        obs,
        sp,
    ) -> Optional[Job]:
        """Lines 12–18 on the :class:`IncrementalSchedule` hot path.

        Returns the head of σ (``None`` when σ stays empty).  Emits the
        same events, in the same order, as the reference builder; with
        no event or metric sink it stops once the head is settled.
        """
        sigma = IncrementalSchedule(t, f_m)
        for i, (metric, _, job) in enumerate(sigma.until_settled(ranked, obs)):
            if metric <= 0.0:
                if obs is not None:
                    for m, _, late in ranked[i:]:
                        obs.emit(t, EventKind.REJECT, late.key, source=self.name,
                                 reason="nonpositive-uer", uer=m)
                        obs.inc("sigma_rejections", reason="nonpositive-uer")
                break  # sorted: no later job can have positive UER
            if sp is not None:
                sp.enter("core.eua_feasibility")
                pos = sigma.try_insert(job)
                sp.exit()
            else:
                pos = sigma.try_insert(job)
            if pos >= 0:
                if obs is not None:
                    obs.emit(t, EventKind.INSERT, job.key, source=self.name,
                             uer=metric, position=pos, sigma_len=len(sigma))
                    obs.inc("sigma_insertions")
            else:
                if obs is not None:
                    obs.emit(t, EventKind.REJECT, job.key, source=self.name,
                             reason="insertion-infeasible", uer=metric)
                    obs.inc("sigma_rejections", reason="insertion-infeasible")
                if self.strict_insertion_break:
                    break
        return sigma.head

    def _build_sigma_reference(
        self,
        ranked: List[Tuple[float, float, Job]],
        t: float,
        f_m: float,
        obs,
        sp,
    ) -> Optional[Job]:
        """Lines 12–18 with the naive copy-and-rewalk feasibility path
        (the differential harness's oracle arm)."""
        sigma: List[Job] = []
        for i, (metric, _, job) in enumerate(ranked):
            if metric <= 0.0:
                if obs is not None:
                    for m, _, late in ranked[i:]:
                        obs.emit(t, EventKind.REJECT, late.key, source=self.name,
                                 reason="nonpositive-uer", uer=m)
                        obs.inc("sigma_rejections", reason="nonpositive-uer")
                break  # sorted: no later job can have positive UER
            tentative = insert_by_critical_time(sigma, job)
            if sp is not None:
                sp.enter("core.eua_feasibility")
                feasible = schedule_feasible(tentative, t, f_m)
                sp.exit()
            else:
                feasible = schedule_feasible(tentative, t, f_m)
            if feasible:
                sigma = tentative
                if obs is not None:
                    obs.emit(t, EventKind.INSERT, job.key, source=self.name,
                             uer=metric, position=tentative.index(job),
                             sigma_len=len(tentative))
                    obs.inc("sigma_insertions")
            else:
                if obs is not None:
                    obs.emit(t, EventKind.REJECT, job.key, source=self.name,
                             reason="insertion-infeasible", uer=metric)
                    obs.inc("sigma_rejections", reason="insertion-infeasible")
                if self.strict_insertion_break:
                    break
        return sigma[0] if sigma else None

    def _candidates(
        self, view: SchedulerView, ranked: List[Tuple[float, float, Job]]
    ) -> List[Tuple[float, float, Job]]:
        """The ranked jobs offered to σ construction (all of them here).

        Policy hook between the UER sort and lines 12–18: a subclass
        may return a filtered copy (``ranked`` is the shared per-event
        memo, so it must not be changed in place) to keep jobs out of σ.
        """
        return ranked
