"""Analytical results: Theorem 1 feasibility, schedulability, assurances, stats."""

from .accrual import (
    StepCurve,
    energy_spend_curve,
    utility_accrual_curve,
    utility_per_joule_curve,
)
from .assurance import (
    AssuranceReport,
    normal_quantile,
    task_assurance,
    verify_assurances,
    wilson_interval,
    wilson_lower_bound,
)
from .lower_bound import (
    YDSJob,
    YDSSchedule,
    jobs_from_trace,
    yds_energy,
    yds_schedule,
)
from .feasibility import (
    demand_bound_satisfied,
    feasible_at,
    min_feasible_frequency,
    taskset_min_frequency,
    uam_cycle_demand,
)
from .schedulability import (
    brh_demand,
    brh_schedulable,
    edf_utilization,
    is_underload_regime,
    liu_layland_schedulable,
)
from .stats import (
    SummaryStat,
    normalize_energy,
    normalize_utility,
    normalized_series,
    summarize,
)

__all__ = [
    "uam_cycle_demand",
    "min_feasible_frequency",
    "taskset_min_frequency",
    "feasible_at",
    "demand_bound_satisfied",
    "edf_utilization",
    "liu_layland_schedulable",
    "brh_demand",
    "brh_schedulable",
    "is_underload_regime",
    "AssuranceReport",
    "normal_quantile",
    "task_assurance",
    "verify_assurances",
    "wilson_interval",
    "wilson_lower_bound",
    "SummaryStat",
    "summarize",
    "normalize_energy",
    "normalize_utility",
    "normalized_series",
    "YDSJob",
    "YDSSchedule",
    "yds_schedule",
    "yds_energy",
    "jobs_from_trace",
    "StepCurve",
    "utility_accrual_curve",
    "energy_spend_curve",
    "utility_per_joule_curve",
]
