"""Pillai–Shin real-time DVS baselines (SOSP'01), adapted to UAM.

The paper compares EUA* against the RT-DVS algorithms of reference
[13].  All three share EDF job selection and differ in how they pick
the frequency:

* :class:`StaticEDF` — one frequency for the whole run, the lowest
  level covering the worst-case aggregate demand rate ``Σ C_i / D_i``
  (Theorem 1 analysis).
* :class:`CCEDF` — cycle-conserving: while a task has pending work it
  reserves its worst-case window rate; when its jobs complete the
  reservation drops to the cycles *actually* used until new work
  arrives.  Early completions immediately lower the frequency.
* :class:`LAEDF` — look-ahead: defers as much work as possible past
  the earliest critical time (the same deferral computation EUA*'s
  ``decideFreq`` performs — the paper notes its Algorithm 2 is
  "similar to [13]") but, being energy-model-oblivious, never raises
  the result toward an energy-optimal operating point.

Adaptation notes (the originals assume strictly periodic tasks):
deadlines become critical times, per-period WCETs become Chebyshev
window budgets ``C_i = a_i·c_i`` — the paper itself feeds "cycles
allocated by EUA" to the comparison policies (Section 5.1).  Each
policy takes ``abort_expired=False`` to build its `-NA` variant.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..core.decide_freq import required_rate_lookahead
from ..cpu import EnergyModel, FrequencyScale
from ..sim.scheduler import Decision, Scheduler, SchedulerView
from ..sim.task import TaskSet
from .edf import edf_pick

__all__ = ["StaticEDF", "CCEDF", "LAEDF"]


class StaticEDF(Scheduler):
    """EDF with static voltage scaling.

    ``f = selectFreq(Σ C_i / D_i)`` computed once at setup; saturates at
    ``f_max`` during overloads.
    """

    def __init__(self, name: str = "Static-EDF", abort_expired: bool = True):
        self.name = name
        self.abort_expired = bool(abort_expired)
        self._frequency: Optional[float] = None

    def setup(self, taskset: TaskSet, scale: FrequencyScale, energy_model: EnergyModel) -> None:
        rate = sum(t.window_cycles / t.critical_time for t in taskset)
        self._frequency = scale.select_capped(rate)

    def decide(self, view: SchedulerView) -> Decision:
        assert self._frequency is not None, "setup() not called"
        return Decision(job=edf_pick(view), frequency=self._frequency)


class CCEDF(Scheduler):
    """Cycle-conserving EDF.

    Per-task reservations follow Pillai–Shin's update rule, translated
    to the statistical-budget setting:

    * while a task has pending jobs it reserves its worst-case window
      rate ``C_i / D_i`` (on release the reservation resets to the
      budget);
    * when its last pending job completes, the reservation drops to the
      cycles that job *actually* executed over ``D_i`` — the slack the
      Chebyshev budget over-provisioned is reclaimed until new work
      arrives.

    The operating point is the lowest ladder level covering the summed
    reservations, recomputed at every scheduling event.
    """

    def __init__(self, name: str = "ccEDF", abort_expired: bool = True):
        self.name = name
        self.abort_expired = bool(abort_expired)
        self._idle_rate: Dict[str, float] = {}

    def setup(self, taskset: TaskSet, scale: FrequencyScale, energy_model: EnergyModel) -> None:
        # Until the first completion we only know the worst case.
        self._idle_rate = {t.name: t.window_cycles / t.critical_time for t in taskset}

    def on_completion(self, job, time: float) -> None:
        task = job.task
        self._idle_rate[task.name] = min(
            job.executed / task.critical_time,
            task.window_cycles / task.critical_time,
        )

    def decide(self, view: SchedulerView) -> Decision:
        total = 0.0
        for task in view.taskset:
            if view.head_job_of(task) is not None:
                total += task.window_cycles / task.critical_time
            else:
                total += self._idle_rate[task.name]
        return Decision(job=edf_pick(view), frequency=view.scale.select_capped(total))


class LAEDF(Scheduler):
    """Look-ahead EDF (the strongest Pillai–Shin variant).

    Uses the work-deferral rate computation (shared with EUA*'s
    ``decideFreq``) but dispatches in plain EDF order, never aborts
    eagerly-infeasible jobs early, and — crucially for the paper's E2/E3
    energy settings — ignores the system energy model entirely, so it
    will happily sit at ``f_min`` even when fixed system power makes
    that operating point *more* expensive per cycle.
    """

    def __init__(self, name: str = "LA-EDF", abort_expired: bool = True):
        self.name = name
        self.abort_expired = bool(abort_expired)

    def decide(self, view: SchedulerView) -> Decision:
        job = edf_pick(view)
        f = view.scale.select_capped(required_rate_lookahead(view))
        return Decision(job=job, frequency=f)
