"""Experimental verification of the paper's timeliness theorems (§4).

* **Theorem 2 / Corollaries 3–4**: for periodic tasks with step TUFs
  and no overload, EUA* produces an EDF (critical-time-ordered)
  schedule, accrues equal total utility, meets all critical times, and
  minimises maximum lateness.
* **Theorem 5**: under the same conditions the statistical performance
  requirements are met.
* **Theorem 6**: for non-increasing TUFs (critical time < termination)
  the requirements hold under the Baruah–Rosier–Howell condition.

These drivers run paired simulations and return structured evidence;
the corresponding benches print it, and integration tests assert it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from ..analysis import brh_schedulable, is_underload_regime, verify_assurances
from ..core import EUAStar
from ..sched import EDFStatic
from ..sim import JobStatus, Platform, compare, simulate
from .config import DEFAULT_HORIZON, energy_setting
from .parallel import WorkloadSpec

__all__ = ["TheoremEvidence", "check_edf_equivalence", "check_assurances"]


@dataclass
class TheoremEvidence:
    """Outcome of one theorem-verification run."""

    load: float
    underload: bool
    equal_utility: bool
    same_completion_order: bool
    all_critical_times_met: bool
    max_lateness_eua: float
    max_lateness_edf: float
    assurances_met: bool
    details: Dict[str, object]


def _max_lateness(result) -> float:
    """max over completed jobs of (completion − critical time)."""
    worst = float("-inf")
    for job in result.jobs:
        if job.status is JobStatus.COMPLETED:
            worst = max(worst, job.completion_time - job.critical_time)
    return worst


def check_edf_equivalence(
    load: float = 0.6,
    seed: int = 101,
    horizon: float = DEFAULT_HORIZON,
    f_max: float = 1000.0,
    energy_setting_name: str = "E1",
) -> TheoremEvidence:
    """Theorem 2 / Corollaries 3–4 evidence at one underload point.

    Runs EUA* and EDF@f_max... both pinned to ``f_max`` so schedules are
    directly comparable (DVS changes timing but not EDF-equivalence of
    the *ordering*; we compare the job completion order).
    """
    taskset, trace = WorkloadSpec(load, seed, horizon, f_max=f_max).build()
    platform = Platform.powernow_k6(energy_setting(energy_setting_name, f_max))
    runs = compare(
        [EUAStar(name="EUA*", use_dvs=False), EDFStatic(name="EDF")],
        trace,
        platform=platform,
        record_trace=True,
    )
    eua, edf = runs["EUA*"], runs["EDF"]

    def completion_order(result) -> List[str]:
        done = [j for j in result.jobs if j.status is JobStatus.COMPLETED]
        done.sort(key=lambda j: j.completion_time)
        return [j.key for j in done]

    all_met = all(
        job.completion_time <= job.critical_time + 1e-9
        for job in eua.jobs
        if job.status is JobStatus.COMPLETED
    ) and all(j.status is JobStatus.COMPLETED for j in eua.jobs if j.release + 1.0 < horizon)

    assurance = verify_assurances(eua, taskset)
    return TheoremEvidence(
        load=load,
        underload=is_underload_regime(taskset, f_max),
        equal_utility=abs(eua.metrics.accrued_utility - edf.metrics.accrued_utility) <= 1e-6,
        same_completion_order=completion_order(eua) == completion_order(edf),
        all_critical_times_met=all_met,
        max_lateness_eua=_max_lateness(eua),
        max_lateness_edf=_max_lateness(edf),
        assurances_met=all(r.satisfied_point for r in assurance.values()),
        details={
            "eua_utility": eua.metrics.accrued_utility,
            "edf_utility": edf.metrics.accrued_utility,
            "jobs": len(eua.jobs),
        },
    )


def check_assurances(
    load: float = 0.6,
    seed: int = 202,
    horizon: float = DEFAULT_HORIZON,
    tuf_shape: str = "linear",
    nu: float = 0.3,
    rho: float = 0.9,
    f_max: float = 1000.0,
) -> Dict[str, object]:
    """Theorem 5/6 evidence: per-task empirical {ν, ρ} attainment.

    With ``tuf_shape='linear'`` the critical times precede termination
    times, exercising the Theorem 6 (BRH-condition) case.
    """
    taskset, trace = WorkloadSpec(
        load, seed, horizon, tuf_shape=tuf_shape, nu=nu, rho=rho, f_max=f_max
    ).build()
    platform = Platform.powernow_k6(energy_setting("E1", f_max))
    result = simulate(trace, EUAStar(), platform=platform)
    reports = verify_assurances(result, taskset)
    return {
        "brh_schedulable": brh_schedulable(taskset, f_max),
        "reports": reports,
        "all_satisfied": all(r.satisfied_point for r in reports.values()),
        "min_attainment": min(r.attainment for r in reports.values()),
    }
