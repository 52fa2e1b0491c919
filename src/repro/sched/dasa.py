"""DASA — the Dependent Activity Scheduling Algorithm (Clark, 1990),
in its independent-task form, i.e. Locke's best-effort scheduling.

The paper's intellectual lineage runs through Locke's thesis [10]
(best-effort decision making, whose *absence* of abortion produces the
domino effect the evaluation demonstrates) and the authors' GUS/DASA
family.  DASA is the classical energy-*oblivious* utility accrual
scheduler:

1. compute each pending job's potential utility density (PUD):
   expected utility per unit of remaining execution time;
2. examine jobs in decreasing PUD order, tentatively inserting each
   into a deadline-ordered schedule; keep the insertion only if the
   schedule remains feasible;
3. dispatch the head of the schedule.

Structurally this is Algorithm 1 with UER replaced by PUD and no DVS —
which is exactly why it makes a sharp baseline: any energy advantage
EUA* shows over DASA is attributable to the energy-aware pieces (UER
ordering, decideFreq, f°), not to utility accrual itself.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..core.feasibility import insert_by_critical_time, job_feasible, schedule_feasible
from ..core.offline import MIN_UER_CYCLES
from ..obs import EventKind
from ..sim.job import Job
from ..sim.scheduler import Decision, Scheduler, SchedulerView

__all__ = ["DASA"]


class DASA(Scheduler):
    """Best-effort utility-density scheduling at a pinned frequency.

    Parameters
    ----------
    frequency:
        Operating point (defaults to ``f_max`` — DASA predates DVS).
    abort_infeasible:
        Drop individually-infeasible jobs eagerly (as EUA* does); with
        ``False`` they linger until the termination exception.
    """

    def __init__(
        self,
        name: str = "DASA",
        frequency: Optional[float] = None,
        abort_infeasible: bool = True,
    ):
        self.name = name
        self._frequency = frequency
        self.abort_infeasible = bool(abort_infeasible)

    def decide(self, view: SchedulerView) -> Decision:
        t = view.time
        f = self._frequency if self._frequency is not None else view.scale.f_max
        if f not in view.scale:
            f = view.scale.at_least(f)
        f_max = view.scale.f_max

        obs = self.observer
        sp = obs.spans if obs is not None else None
        if sp is not None:
            sp.enter("sched.dasa_construct")

        aborts: List[Job] = []
        ranked: List[Tuple[float, float, Job]] = []
        for job in view.ready:
            if not job_feasible(job, t, f_max):
                if self.abort_infeasible and job.task.abortable:
                    aborts.append(job)
                if obs is not None:
                    obs.emit(t, EventKind.REJECT, job.key, source=self.name,
                             reason="individually-infeasible")
                    obs.inc("sigma_rejections", reason="individually-infeasible")
                continue
            c = max(job.remaining_budget, MIN_UER_CYCLES)
            # PUD: utility if completed after its remaining budget, per
            # unit of remaining execution time at the dispatch frequency.
            pud = job.utility_at(t + c / f) / (c / f)
            ranked.append((pud, job.critical_time, job))

        ranked.sort(key=lambda e: (-e[0], e[1], e[2].release, e[2].index))

        sigma: List[Job] = []
        for pud, _, job in ranked:
            if pud <= 0.0:
                break
            tentative = insert_by_critical_time(sigma, job)
            if schedule_feasible(tentative, t, f_max):
                sigma = tentative
                if obs is not None:
                    obs.emit(t, EventKind.INSERT, job.key, source=self.name,
                             pud=pud, sigma_len=len(tentative))
                    obs.inc("sigma_insertions")
            elif obs is not None:
                obs.emit(t, EventKind.REJECT, job.key, source=self.name,
                         reason="insertion-infeasible", pud=pud)
                obs.inc("sigma_rejections", reason="insertion-infeasible")
        if sp is not None:
            sp.exit()  # sched.dasa_construct

        head = sigma[0] if sigma else None
        return Decision(job=head, frequency=f, aborts=tuple(aborts))
