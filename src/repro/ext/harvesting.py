"""Energy-harvesting scheduling (rechargeable systems).

The paper's related work cites Rusu–Melhem–Mossé's rechargeable
energy-aware scheduling [14]; its own future work asks for "scheduling
under finite energy budgets".  :class:`HarvestingEUA` combines the two:
the battery *replenishes* at a (piecewise-constant) harvest rate while
the system runs, and the scheduler adapts EUA* to the current state of
charge:

* **surplus** (charge above the comfort band): plain EUA*;
* **conserving** (inside the band): raise selectivity like
  :class:`~repro.ext.energy_budget.BudgetedEUA`.  No frequency floor is
  needed: EUA*'s ``f°`` bound already keeps every dispatch at or above
  the energy-optimal frequency (``tests/properties/test_uer_optimal_props.py``);
* **depleted** (empty battery): idle until the harvest restores the
  reserve threshold.

The battery model is deliberately simple — capacity, charge, constant
harvest segments — because the scheduling question (what to run, how
fast, given the charge trajectory) is the interesting part.
"""

from __future__ import annotations

import bisect
from typing import List, Optional, Sequence, Tuple

from ..core.eua import EUAStar
from ..cpu import EnergyModel, FrequencyScale
from ..sim.job import Job
from ..sim.scheduler import Decision, SchedulerView
from ..sim.task import TaskSet

__all__ = ["HarvestProfile", "HarvestingEUA"]


class HarvestProfile:
    """Piecewise-constant harvest power over time.

    ``segments`` is a list of ``(start_time, power)`` with increasing
    start times; the first segment should start at 0.  Energy harvested
    over ``[0, t]`` is the integral of the step function.
    """

    def __init__(self, segments: Sequence[Tuple[float, float]]):
        if not segments:
            raise ValueError("need at least one harvest segment")
        starts = [s for s, _ in segments]
        if starts[0] != 0.0:
            raise ValueError("first harvest segment must start at t=0")
        if any(b <= a for a, b in zip(starts, starts[1:])):
            raise ValueError("segment start times must strictly increase")
        if any(p < 0.0 for _, p in segments):
            raise ValueError("harvest power must be >= 0")
        self._starts = starts
        self._powers = [p for _, p in segments]

    @classmethod
    def constant(cls, power: float) -> "HarvestProfile":
        return cls([(0.0, power)])

    def power_at(self, t: float) -> float:
        i = bisect.bisect_right(self._starts, t) - 1
        return self._powers[max(0, i)]

    def harvested(self, until: float) -> float:
        """Total energy harvested over ``[0, until]``."""
        if until <= 0.0:
            return 0.0
        total = 0.0
        for i, start in enumerate(self._starts):
            end = self._starts[i + 1] if i + 1 < len(self._starts) else float("inf")
            lo, hi = start, min(end, until)
            if hi > lo:
                total += self._powers[i] * (hi - lo)
            if end >= until:
                break
        return total


class HarvestingEUA(EUAStar):
    """EUA* on a rechargeable battery.

    Parameters
    ----------
    capacity:
        Battery capacity (energy units of the platform's model).
    initial_charge:
        State of charge at t = 0 (defaults to full).
    harvest:
        The replenishment profile.
    reserve_fraction:
        Below this state of charge the scheduler idles to recover
        ("depleted" zone).
    comfort_fraction:
        Above this state of charge it behaves as plain EUA*
        ("surplus" zone); in between it is selective.
    """

    def __init__(
        self,
        capacity: float,
        harvest: HarvestProfile,
        initial_charge: Optional[float] = None,
        reserve_fraction: float = 0.05,
        comfort_fraction: float = 0.5,
        name: str = "EUA*-harvest",
    ):
        if capacity <= 0.0:
            raise ValueError(f"capacity must be > 0, got {capacity!r}")
        if not (0.0 <= reserve_fraction < comfort_fraction <= 1.0):
            raise ValueError("need 0 <= reserve < comfort <= 1")
        super().__init__(name=name)
        self.capacity = float(capacity)
        self.harvest = harvest
        self.initial_charge = capacity if initial_charge is None else float(initial_charge)
        if not (0.0 <= self.initial_charge <= capacity):
            raise ValueError("initial charge must lie within capacity")
        self.reserve_fraction = float(reserve_fraction)
        self.comfort_fraction = float(comfort_fraction)
        #: Diagnostics for benches/tests.
        self.depleted_decisions = 0

    def setup(self, taskset: TaskSet, scale: FrequencyScale, energy_model: EnergyModel) -> None:
        super().setup(taskset, scale, energy_model)
        self.depleted_decisions = 0

    # ------------------------------------------------------------------
    def state_of_charge(self, view: SchedulerView) -> float:
        """Current charge: initial + harvested − consumed, clamped."""
        charge = (
            self.initial_charge
            + self.harvest.harvested(view.time)
            - view.energy_consumed
        )
        return max(0.0, min(self.capacity, charge))

    def _zone(self, soc: float) -> str:
        frac = soc / self.capacity
        if frac <= self.reserve_fraction:
            return "depleted"
        if frac >= self.comfort_fraction:
            return "surplus"
        return "conserving"

    # ------------------------------------------------------------------
    def decide(self, view: SchedulerView) -> Decision:
        """Idle (no aborts) when depleted; otherwise EUA* with the
        conserving zone's selectivity."""
        if self._zone(self.state_of_charge(view)) == "depleted":
            self.depleted_decisions += 1
            return Decision(job=None, frequency=view.scale.f_max)
        return super().decide(view)

    def _candidates(
        self, view: SchedulerView, ranked: List[Tuple[float, float, Job]]
    ) -> List[Tuple[float, float, Job]]:
        """In the conserving zone, selectivity grows as the charge sinks
        toward the reserve."""
        soc = self.state_of_charge(view)
        if not ranked or self._zone(soc) != "conserving":
            return ranked
        span = self.comfort_fraction - self.reserve_fraction
        deficit = (self.comfort_fraction - soc / self.capacity) / span
        threshold = deficit * ranked[0][0]
        return [e for e in ranked if e[0] >= threshold]
