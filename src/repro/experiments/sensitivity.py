"""Parameter-sensitivity sweeps.

Beyond the paper's two figures, these drivers answer the questions a
deployment engineer asks before trusting the numbers: how do the
results move with the assurance level ρ, the task-set size, the window
spread, and the frequency-ladder granularity?  Each returns plain row
dicts for :func:`~repro.experiments.reporting.ascii_table`.

Every sweep decomposes into independent (setting, seed)
:class:`~repro.experiments.parallel.CompareUnit` cells, so ``workers >
1`` shards it across a process pool with a deterministic, seed-ordered
merge — values are identical to the serial sweep.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..analysis import verify_assurances
from ..core import EUAStar
from ..cpu import FrequencyScale
from ..sched import EDFStatic
from .config import DEFAULT_HORIZON, DEFAULT_SEEDS, AppSetting, TABLE1
from .parallel import (
    CompareOutcome,
    CompareUnit,
    PlatformSpec,
    SchedulerSpec,
    WorkloadSpec,
    run_units,
)

__all__ = [
    "sweep_rho",
    "sweep_taskset_size",
    "sweep_ladder_granularity",
]

#: Every sensitivity sweep compares EUA* against the EDF normaliser.
_ARMS: Tuple[SchedulerSpec, ...] = (
    SchedulerSpec.of(EUAStar),
    SchedulerSpec.of(EDFStatic),
)


def _summarise(outcomes: Sequence[CompareOutcome]) -> Tuple[float, float, float]:
    """Mean normalised energy, utility, and worst-case attainment of
    EUA* over a group of per-seed outcomes."""
    energies, utils, attain = [], [], []
    for outcome in outcomes:
        runs = outcome.results
        energies.append(runs["EUA*"].energy / runs["EDF"].energy)
        utils.append(runs["EUA*"].metrics.normalized_utility)
        reports = verify_assurances(runs["EUA*"], outcome.taskset)
        attain.append(min(r.attainment for r in reports.values()))
    return (
        float(np.mean(energies)),
        float(np.mean(utils)),
        float(np.mean(attain)),
    )


def _grouped(
    units: Sequence[CompareUnit],
    workers: int,
) -> Dict[object, List[CompareOutcome]]:
    """Run units and group outcomes by ``key[0]`` (the swept setting)."""
    groups: Dict[object, List[CompareOutcome]] = {}
    for outcome in run_units(units, max_workers=workers):
        groups.setdefault(outcome.key[0], []).append(outcome)
    return groups


def sweep_rho(
    rhos: Sequence[float] = (0.5, 0.9, 0.96, 0.99),
    load: float = 0.7,
    seeds: Sequence[int] = DEFAULT_SEEDS,
    horizon: float = DEFAULT_HORIZON,
    workers: int = 1,
) -> List[Dict[str, float]]:
    """Assurance level vs energy: stronger ρ ⇒ fatter budgets ⇒ higher
    frequencies.  (The workload keeps significant demand variance so ρ
    actually moves the allocation.)"""
    units = [
        CompareUnit(
            key=(rho, seed),
            schedulers=_ARMS,
            workload=WorkloadSpec(
                load=load,
                seed=seed,
                horizon=horizon,
                tuf_shape="linear",
                nu=0.3,
                rho=rho,
            ),
            platform=PlatformSpec(energy="E1"),
        )
        for rho in rhos
        for seed in seeds
    ]
    groups = _grouped(units, workers)
    rows = []
    for rho in rhos:
        energy, util, attain = _summarise(groups[rho])
        rows.append({"rho": rho, "norm_energy": energy, "utility": util,
                     "min_attainment": attain})
    return rows


def sweep_taskset_size(
    multipliers: Sequence[int] = (1, 2, 3),
    load: float = 0.7,
    seeds: Sequence[int] = DEFAULT_SEEDS,
    horizon: float = DEFAULT_HORIZON,
    workers: int = 1,
) -> List[Dict[str, float]]:
    """Task-set size at constant load: more, smaller tasks give the
    deferral more interleaving opportunities but cost more scheduling
    events."""
    apps_by_mult = {
        mult: tuple(
            AppSetting(a.name, a.n_tasks * mult, a.max_arrivals,
                       a.window_range, a.umax_range)
            for a in TABLE1
        )
        for mult in multipliers
    }
    units = [
        CompareUnit(
            key=(mult, seed),
            schedulers=_ARMS,
            workload=WorkloadSpec(
                load=load,
                seed=seed,
                horizon=horizon,
                apps=apps_by_mult[mult],
            ),
            platform=PlatformSpec(energy="E1"),
        )
        for mult in multipliers
        for seed in seeds
    ]
    groups = _grouped(units, workers)
    rows = []
    for mult in multipliers:
        energy, util, attain = _summarise(groups[mult])
        rows.append({
            "n_tasks": sum(a.n_tasks for a in apps_by_mult[mult]),
            "norm_energy": energy,
            "utility": util,
            "min_attainment": attain,
        })
    return rows


def sweep_ladder_granularity(
    level_counts: Sequence[int] = (2, 4, 7, 14),
    load: float = 0.6,
    seeds: Sequence[int] = DEFAULT_SEEDS,
    horizon: float = DEFAULT_HORIZON,
    workers: int = 1,
) -> List[Dict[str, float]]:
    """Frequency-ladder granularity: with only {f_min, f_max} DVS can
    barely modulate; finer ladders approach the continuous optimum.
    The 7-level row is the PowerNow! part itself."""
    def _levels(m: int) -> Tuple[float, ...]:
        if m == 7:
            return tuple(FrequencyScale.powernow_k6().levels)
        return tuple(FrequencyScale.uniform(360.0, 1000.0, m).levels)

    units = [
        CompareUnit(
            key=(m, seed),
            schedulers=_ARMS,
            workload=WorkloadSpec(load=load, seed=seed, horizon=horizon),
            platform=PlatformSpec(energy="E1", scale_levels=_levels(m)),
        )
        for m in level_counts
        for seed in seeds
    ]
    groups = _grouped(units, workers)
    rows = []
    for m in level_counts:
        energy, util, attain = _summarise(groups[m])
        rows.append({"levels": m, "norm_energy": energy, "utility": util,
                     "min_attainment": attain})
    return rows
