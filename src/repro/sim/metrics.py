"""Simulation metrics.

Aggregates the quantities the paper reports: accrued utility (absolute
and normalised), system-level energy, per-task statistical-assurance
attainment, and job outcome counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..cpu import ProcessorStats
from .job import Job, JobStatus
from .task import Task, TaskSet

__all__ = ["TaskMetrics", "Metrics"]


@dataclass
class TaskMetrics:
    """Per-task outcome summary."""

    name: str
    released: int = 0
    completed: int = 0
    aborted: int = 0
    expired: int = 0
    shed: int = 0
    unfinished: int = 0
    accrued_utility: float = 0.0
    max_possible_utility: float = 0.0
    met_critical_time: int = 0
    met_requirement: int = 0

    @property
    def normalized_utility(self) -> float:
        """Accrued / maximum-possible utility for this task."""
        if self.max_possible_utility == 0.0:
            return 0.0
        return self.accrued_utility / self.max_possible_utility

    @property
    def assurance_attainment(self) -> float:
        """Empirical ``Pr[utility >= ν·U_max]`` over decided jobs.

        Jobs still unfinished at the horizon are excluded — their outcome
        is censored, not failed.
        """
        decided = self.released - self.unfinished
        if decided == 0:
            return 1.0
        return self.met_requirement / decided


class Metrics:
    """Whole-run summary built from the final job population."""

    def __init__(
        self,
        taskset: TaskSet,
        jobs: List[Job],
        processor_stats: ProcessorStats,
        horizon: float,
    ):
        self.taskset = taskset
        self.jobs = list(jobs)
        self.processor = processor_stats
        self.horizon = float(horizon)
        self.per_task: Dict[str, TaskMetrics] = {t.name: TaskMetrics(t.name) for t in taskset}
        for job in self.jobs:
            tm = self.per_task[job.task.name]
            tm.released += 1
            tm.max_possible_utility += job.max_utility
            tm.accrued_utility += job.accrued_utility
            if job.status is JobStatus.COMPLETED:
                tm.completed += 1
                assert job.completion_time is not None
                if job.completion_time <= job.critical_time + 1e-9:
                    tm.met_critical_time += 1
                if job.met_statistical_requirement:
                    tm.met_requirement += 1
            elif job.status is JobStatus.ABORTED:
                tm.aborted += 1
            elif job.status is JobStatus.EXPIRED:
                tm.expired += 1
            elif job.status is JobStatus.SHED:
                tm.shed += 1
            else:
                tm.unfinished += 1

    # ------------------------------------------------------------------
    # System-level aggregates
    # ------------------------------------------------------------------
    @property
    def accrued_utility(self) -> float:
        return sum(tm.accrued_utility for tm in self.per_task.values())

    @property
    def max_possible_utility(self) -> float:
        return sum(tm.max_possible_utility for tm in self.per_task.values())

    @property
    def normalized_utility(self) -> float:
        """Total accrued utility / total attainable utility."""
        denom = self.max_possible_utility
        return self.accrued_utility / denom if denom > 0.0 else 0.0

    @property
    def energy(self) -> float:
        """Total system energy (busy + idle + switching)."""
        return self.processor.total_energy

    @property
    def utility_per_energy(self) -> float:
        """The paper's overload objective: utility per unit energy."""
        return self.accrued_utility / self.energy if self.energy > 0.0 else 0.0

    @property
    def released(self) -> int:
        return sum(tm.released for tm in self.per_task.values())

    @property
    def completed(self) -> int:
        return sum(tm.completed for tm in self.per_task.values())

    @property
    def aborted(self) -> int:
        return sum(tm.aborted for tm in self.per_task.values())

    @property
    def expired(self) -> int:
        return sum(tm.expired for tm in self.per_task.values())

    @property
    def shed(self) -> int:
        return sum(tm.shed for tm in self.per_task.values())

    @property
    def unfinished(self) -> int:
        return sum(tm.unfinished for tm in self.per_task.values())

    # ------------------------------------------------------------------
    def assurance_satisfied(self, task: Task) -> bool:
        """Whether ``{ν_i, ρ_i}`` held empirically for ``task``."""
        tm = self.per_task[task.name]
        return tm.assurance_attainment >= task.rho - 1e-12

    def all_assurances_satisfied(self) -> bool:
        return all(self.assurance_satisfied(t) for t in self.taskset)

    def summary(self) -> Dict[str, float]:
        """Flat dict of headline numbers (reporting convenience)."""
        return {
            "accrued_utility": self.accrued_utility,
            "max_possible_utility": self.max_possible_utility,
            "normalized_utility": self.normalized_utility,
            "energy": self.energy,
            "utility_per_energy": self.utility_per_energy,
            "released": float(self.released),
            "completed": float(self.completed),
            "aborted": float(self.aborted),
            "expired": float(self.expired),
            "shed": float(self.shed),
            "unfinished": float(self.unfinished),
            "busy_time": self.processor.busy_time,
            "idle_time": self.processor.idle_time,
            "avg_frequency": self.processor.average_frequency,
            "freq_switches": float(self.processor.switch_count),
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Metrics(utility={self.accrued_utility:.1f}/{self.max_possible_utility:.1f}, "
            f"energy={self.energy:.3g}, jobs={self.completed}/{self.released})"
        )
