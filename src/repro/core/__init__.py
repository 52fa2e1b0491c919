"""The paper's core contribution: EUA* and its building blocks."""

from .decide_freq import (
    decide_freq,
    future_cycles_due,
    required_rate,
    required_rate_demand,
    required_rate_demand_reference,
    required_rate_lookahead,
    required_rate_lookahead_reference,
)
from .eua import EUAStar, job_uer, job_uer_reference
from .feasibility import (
    IncrementalSchedule,
    insert_by_critical_time,
    job_feasible,
    job_feasible_reference,
    predicted_completions,
    schedule_feasible,
    schedule_feasible_reference,
)
from .offline import (
    TaskParams,
    clear_offline_cache,
    invalidate_offline_cache,
    offline_computing,
    offline_computing_reference,
    task_uer,
    uer_optimal_frequency,
)

__all__ = [
    "EUAStar",
    "job_uer",
    "job_uer_reference",
    "decide_freq",
    "required_rate",
    "required_rate_demand",
    "required_rate_demand_reference",
    "required_rate_lookahead",
    "required_rate_lookahead_reference",
    "future_cycles_due",
    "job_feasible",
    "job_feasible_reference",
    "schedule_feasible",
    "schedule_feasible_reference",
    "insert_by_critical_time",
    "predicted_completions",
    "IncrementalSchedule",
    "TaskParams",
    "offline_computing",
    "offline_computing_reference",
    "clear_offline_cache",
    "invalidate_offline_cache",
    "task_uer",
    "uer_optimal_frequency",
]
