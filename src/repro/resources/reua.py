"""REUA — resource-aware EUA* (after the EMSOFT'04 companion [17]).

EUA* extended with dependency-aware dispatching over shared resources:

1. Build the feasible UER-ordered schedule σ exactly as EUA* does,
   except that a *blocked* job's predicted completion must also wait
   for its blocker, so the blocker's remaining budget is charged ahead
   of it during feasibility checks.
2. Dispatch the head of σ — **or, when the head is blocked, dispatch
   its blocker instead** (transitively).  Executing the dependency
   chain's end is the GUS/DASA rule: it is the only way to make
   progress toward the blocked high-UER job, and it bounds priority
   inversion the way priority inheritance does.
3. decideFreq as in EUA* (the blocker inherits the urgency of the
   chain it unblocks).

Mutual exclusion is enforced here (never dispatch a job whose resource
is held by another started job); :mod:`repro.resources.audit` verifies
it post hoc from the trace.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..core.decide_freq import decide_freq
from ..core.eua import job_uer
from ..core.feasibility import insert_by_critical_time, job_feasible
from ..core.offline import TaskParams, offline_computing
from ..cpu import EnergyModel, FrequencyScale
from ..obs import EventKind
from ..sim.job import Job
from ..sim.scheduler import Decision, Scheduler, SchedulerView
from ..sim.task import TaskSet
from .model import ResourceMap

__all__ = ["REUA"]

_EPS = 1e-12


class REUA(Scheduler):
    """Resource-aware EUA*."""

    def __init__(
        self,
        resources: ResourceMap,
        name: str = "REUA",
        use_dvs: bool = True,
        use_fopt_bound: bool = True,
        dvs_method: str = "lookahead",
    ):
        self.name = name
        self.resources = resources
        self.use_dvs = bool(use_dvs)
        self.use_fopt_bound = bool(use_fopt_bound)
        self.dvs_method = dvs_method
        self._params: Dict[str, TaskParams] = {}
        #: Diagnostics: dispatches redirected to a blocker.
        self.inherited_dispatches = 0

    def setup(self, taskset: TaskSet, scale: FrequencyScale, energy_model: EnergyModel) -> None:
        self._params = offline_computing(taskset, scale, energy_model)
        self.inherited_dispatches = 0

    # ------------------------------------------------------------------
    def _chain_feasible(
        self, sigma: List[Job], candidate: Job, view: SchedulerView, f_max: float
    ) -> bool:
        """Feasibility of σ + candidate, charging each blocked job its
        blocker's remaining budget ahead of it (the blocker must finish
        first even though it sits elsewhere in σ)."""
        t = view.time
        tentative = insert_by_critical_time(sigma, candidate)
        clock = t
        charged: set = set()
        for job in tentative:
            blocker = self.resources.blocker_of(job, view)
            if blocker is not None and id(blocker) not in charged:
                if blocker not in tentative:
                    clock += blocker.remaining_budget / f_max
                    charged.add(id(blocker))
            clock += job.remaining_budget / f_max
            if clock >= job.termination - _EPS * max(1.0, abs(job.termination)):
                return False
        return True

    # ------------------------------------------------------------------
    def decide(self, view: SchedulerView) -> Decision:
        t = view.time
        f_m = view.scale.f_max
        model = view.energy_model
        obs = self.observer
        sp = obs.spans if obs is not None else None
        if sp is not None:
            sp.enter("resources.reua_construct")

        aborts: List[Job] = []
        ranked: List[Tuple[float, Job]] = []
        for job in view.ready:
            blocker = self.resources.blocker_of(job, view)
            slack_cost = blocker.remaining_budget if blocker is not None else 0.0
            # Individual feasibility must absorb the blocking delay.
            predicted = t + (job.remaining_budget + slack_cost) / f_m
            if predicted >= job.termination or not job_feasible(job, t, f_m):
                if job.task.abortable and blocker is None:
                    # A blocked job may become feasible when its blocker
                    # finishes early; only unblocked-infeasible jobs are
                    # safely hopeless.
                    if not job_feasible(job, t, f_m):
                        aborts.append(job)
                        continue
                if predicted >= job.termination:
                    continue
            ranked.append((job_uer(job, t, f_m, model), job))

        ranked.sort(key=lambda e: (-e[0], e[1].critical_time, e[1].release, e[1].index))

        # Every abort is now decided: resolve blocking against the
        # post-abort ready set.  An aborted holder releases its resources
        # the instant the engine applies the decision, so treating it as
        # a live blocker would dispatch a job the engine no longer holds
        # in its ready list.
        working = view.without(aborts) if aborts else view

        sigma: List[Job] = []
        for uer, job in ranked:
            if uer <= 0.0:
                break
            if self._chain_feasible(sigma, job, working, f_m):
                sigma = insert_by_critical_time(sigma, job)
                if obs is not None:
                    obs.emit(t, EventKind.INSERT, job.key, source=self.name,
                             uer=uer, sigma_len=len(sigma))
                    obs.inc("sigma_insertions")
            elif obs is not None:
                obs.emit(t, EventKind.REJECT, job.key, source=self.name,
                         reason="chain-infeasible", uer=uer)
                obs.inc("sigma_rejections", reason="chain-infeasible")
        if sp is not None:
            sp.exit()  # resources.reua_construct

        if not sigma:
            return Decision(job=None, frequency=f_m, aborts=tuple(aborts))

        # Dependency dispatch: follow the head's blocking chain.
        head = sigma[0]
        exec_job = head
        guard = 0
        while True:
            blocker = self.resources.blocker_of(exec_job, working)
            if blocker is None:
                break
            exec_job = blocker
            guard += 1
            if guard > len(working.ready) + 1:
                raise RuntimeError("blocking cycle detected (should be impossible "
                                   "with whole-job critical sections)")
        if exec_job is not head:
            self.inherited_dispatches += 1
            if obs is not None:
                obs.emit(t, EventKind.INHERIT, exec_job.key, source=self.name,
                         blocked_head=head.key, chain_depth=guard)
                obs.inc("inherited_dispatches")

        if self.use_dvs and view.dvs:
            if sp is not None:
                sp.enter("resources.reua_decide_freq")
            f_exe = decide_freq(
                working, exec_job, self._params,
                use_fopt_bound=self.use_fopt_bound, method=self.dvs_method,
                observer=obs, source=self.name,
            )
            if sp is not None:
                sp.exit()  # resources.reua_decide_freq
        else:
            f_exe = f_m
        return Decision(job=exec_job, frequency=f_exe, aborts=tuple(aborts))

    def decide_frequency(self, view, job):
        """Per-core ``decideFreq()`` for the global multicore engine
        (same contract as :meth:`repro.core.eua.EUAStar.decide_frequency`)."""
        if not self.use_dvs:
            return None
        return decide_freq(
            view, job, self._params,
            use_fopt_bound=self.use_fopt_bound, method=self.dvs_method,
            observer=self.observer, source=self.name,
        )
