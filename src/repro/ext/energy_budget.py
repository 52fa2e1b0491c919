"""Scheduling under a finite energy budget (paper §6 future work).

"Future work includes scheduling under finite energy budgets" — this
module implements that extension: :class:`BudgetedEUA` runs EUA* while
tracking cumulative system energy, and adapts as the battery drains:

* **green zone** (plenty of budget): behave exactly like EUA*;
* **yellow zone** (projected depletion before the mission horizon):
  become selective — only admit jobs into ``σ`` whose UER clears an
  adaptive threshold, spending the scarce joules on the most valuable
  work per joule (the paper's overload rationale, applied to energy);
* **red zone** (budget exhausted): stop dispatching entirely.

The admission threshold scales with scarcity: with fraction ``r`` of
the budget left versus fraction ``h`` of the mission horizon left, the
policy keeps only jobs whose UER is at least ``(1 − r/h)`` of the best
pending UER when energy is running behind schedule (``r < h``).
"""

from __future__ import annotations

from typing import List, Tuple

from ..core.eua import EUAStar
from ..cpu import EnergyModel, FrequencyScale
from ..sim.job import Job
from ..sim.scheduler import SchedulerView
from ..sim.task import TaskSet

__all__ = ["BudgetedEUA"]


class BudgetedEUA(EUAStar):
    """EUA* with a finite energy budget over a mission horizon.

    Parameters
    ----------
    budget:
        Total system energy available (same units as the platform's
        :class:`~repro.cpu.EnergyModel` integrates).
    mission_horizon:
        Time by which the budget must last (seconds).  Scarcity is
        judged against proportional drain: at time ``t`` the policy
        wants at least ``(1 − t/horizon)`` of the budget left.
    """

    def __init__(
        self,
        budget: float,
        mission_horizon: float,
        name: str = "EUA*-budget",
        use_fopt_bound: bool = True,
    ):
        if budget <= 0.0:
            raise ValueError(f"budget must be > 0, got {budget!r}")
        if mission_horizon <= 0.0:
            raise ValueError(f"mission horizon must be > 0, got {mission_horizon!r}")
        super().__init__(name=name, use_fopt_bound=use_fopt_bound)
        self.budget = float(budget)
        self.mission_horizon = float(mission_horizon)
        #: Exposed for tests/benches: count of jobs rejected for energy.
        self.energy_rejections = 0

    def setup(self, taskset: TaskSet, scale: FrequencyScale, energy_model: EnergyModel) -> None:
        super().setup(taskset, scale, energy_model)
        self.energy_rejections = 0

    # ------------------------------------------------------------------
    def remaining_budget_fraction(self, view: SchedulerView) -> float:
        """Fraction of the energy budget still available."""
        return max(0.0, 1.0 - view.energy_consumed / self.budget)

    def _admission_floor(self, view: SchedulerView) -> float:
        """Fraction of the best pending UER a job must reach (0 = all)."""
        r = self.remaining_budget_fraction(view)
        if r <= 0.0:
            return float("inf")  # red zone: admit nothing
        h = max(1e-9, 1.0 - view.time / self.mission_horizon)
        if r >= h:
            return 0.0  # green zone: energy ahead of schedule
        return 1.0 - r / h  # yellow zone: selectivity grows with deficit

    def _candidates(
        self, view: SchedulerView, ranked: List[Tuple[float, float, Job]]
    ) -> List[Tuple[float, float, Job]]:
        """Keep jobs whose UER clears the floor's share of the best UER;
        each positive-UER job below it counts as an energy rejection."""
        floor = self._admission_floor(view)
        if floor == float("inf"):
            return []
        if floor == 0.0 or not ranked:
            return ranked
        threshold = floor * ranked[0][0]
        kept = [e for e in ranked if e[0] >= threshold]
        self.energy_rejections += sum(1 for e in ranked if 0.0 < e[0] < threshold)
        return kept
