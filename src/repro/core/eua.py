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

from typing import Dict, List, Optional, Tuple

from ..obs import EventKind
from ..sim.scheduler import Decision, Scheduler, SchedulerView
from ..sim.job import Job
from ..sim.task import TaskSet
from ..cpu import EnergyModel, FrequencyScale
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


class EUAStar(Scheduler):
    """The paper's contribution. See module docstring."""

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

    # ------------------------------------------------------------------
    def setup(self, taskset: TaskSet, scale: FrequencyScale, energy_model: EnergyModel) -> None:
        """``offlineComputing(T)`` (line 3)."""
        self._params = offline_computing(taskset, scale, energy_model)

    @property
    def params(self) -> Dict[str, TaskParams]:
        """Per-task offline parameters (read-only use by analyses)."""
        return dict(self._params)

    # ------------------------------------------------------------------
    def decide(self, view: SchedulerView) -> Decision:
        t = view.time
        f_m = view.scale.f_max
        model = view.energy_model
        obs = self.observer
        # Span tracing: hoisted once per decide, like the engine's spans.
        sp = obs.spans if obs is not None else None
        if sp is not None:
            sp.enter("core.eua_construct")

        aborts: List[Job] = []
        ranked: List[Tuple[float, float, Job]] = []
        for job in view.ready:
            if not job_feasible(job, t, f_m):
                if self.abort_infeasible and job.task.abortable:
                    aborts.append(job)
                if obs is not None:
                    obs.emit(t, EventKind.REJECT, job.key, source=self.name,
                             reason="individually-infeasible")
                    obs.inc("sigma_rejections", reason="individually-infeasible")
                continue
            metric = self._metric(job, t, f_m, model)
            ranked.append((metric, job.critical_time, job))

        # Non-increasing metric; ties resolved by earlier critical time,
        # then release order for determinism.
        ranked.sort(key=lambda e: (-e[0], e[1], e[2].release, e[2].index))

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
        same observability events, in the same order, as the reference
        builder.
        """
        sigma = IncrementalSchedule(t, f_m)
        for i, (metric, _, job) in enumerate(ranked):
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

    # ------------------------------------------------------------------
    def _metric(self, job: Job, t: float, f_m: float, model: EnergyModel) -> float:
        if self.ordering == "uer":
            return job_uer(job, t, f_m, model)
        # Energy-oblivious utility density (AB1 ablation).
        c = max(job.remaining_budget, MIN_UER_CYCLES)
        return job.utility_at(t + c / f_m) / c
