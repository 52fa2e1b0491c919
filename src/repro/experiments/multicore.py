"""Multicore frontiers — figure-2-style utility/energy vs load at m cores.

The multiprocessor analogue of :mod:`repro.experiments.figure2`: the
same periodic step-TUF workloads and the same EDF-at-``f_max``
normaliser, swept over core counts m ∈ {1, 2, 4, 8} and both execution
models (partitioned and global EUA*).  The workload knob stays the
*per-core* load ϱ — the synthesised task set targets ``ϱ·m`` total
demand, so every m-point stresses its platform equally and the curves
are comparable across core counts.

The normaliser runs *in-cell*: EDF at ``f_max`` under the same mode and
core count, so "normalised energy 0.6 at m=4 partitioned" means "60 %
of what a no-DVS m=4 partitioned system would burn on the identical
jobs" — the exact analogue of the paper's uniprocessor convention.

The m=1 column is the anchoring oracle: both modes reduce bit-
identically to the uniprocessor engine, so the m=1 frontier *is* the
Figure 2 frontier (pinned by ``tests/properties/test_mp_equivalence.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from ..analysis.stats import SummaryStat, normalized_series
from .config import DEFAULT_HORIZON, DEFAULT_SEEDS, FIGURE2_REQUIREMENT, TABLE1
from .parallel import CompareUnit, PlatformSpec, SchedulerSpec, WorkloadSpec, run_units

__all__ = [
    "MULTICORE_CORES",
    "MULTICORE_LOADS",
    "MULTICORE_SCHEDULERS",
    "MulticorePoint",
    "MulticoreResult",
    "multicore_units",
    "run_multicore",
]

#: Core counts of the frontier sweep (m=1 is the uniprocessor anchor).
MULTICORE_CORES: Tuple[int, ...] = (1, 2, 4, 8)
#: Per-core loads — a light/nominal/saturated/overloaded slice of the
#: Figure 2 ladder (the full ladder × m × modes would be ~9× the
#: uniprocessor sweep for little extra signal).
MULTICORE_LOADS: Tuple[float, ...] = (0.4, 0.8, 1.2, 1.6)
#: Series: EUA* against the EDF@f_max normaliser (the two-scheduler
#: core of the figure; the CLI accepts any registry subset).
MULTICORE_SCHEDULERS: Tuple[str, ...] = ("EUA*", "EDF")

BASELINE = "EDF"


@dataclass
class MulticorePoint:
    """One (mode, m, load) cell: per-scheduler normalised U and E."""

    mode: str
    cores: int
    load: float
    utility: Dict[str, SummaryStat]
    energy: Dict[str, SummaryStat]
    #: Mean migrations per run per scheduler (always 0 for partitioned).
    migrations: Dict[str, float] = field(default_factory=dict)


@dataclass
class MulticoreResult:
    """A full multicore frontier sweep for one energy setting."""

    energy_setting: str
    points: List[MulticorePoint] = field(default_factory=list)

    def frontier(
        self, mode: str, cores: int, metric: str, scheduler: str
    ) -> List[Tuple[float, float]]:
        """(load, mean) pairs for one (mode, m) curve."""
        table = {"utility": lambda p: p.utility, "energy": lambda p: p.energy}[metric]
        return [
            (p.load, table(p)[scheduler].mean)
            for p in self.points
            if p.mode == mode and p.cores == cores
        ]

    def rows(self) -> List[Dict[str, object]]:
        """Flat rows (one per mode × m × load × scheduler) for reporting."""
        out: List[Dict[str, object]] = []
        for p in self.points:
            for name in p.utility:
                out.append(
                    {
                        "energy_setting": self.energy_setting,
                        "mode": p.mode,
                        "cores": p.cores,
                        "load": p.load,
                        "scheduler": name,
                        "norm_utility": p.utility[name].mean,
                        "norm_energy": p.energy[name].mean,
                        "migrations": p.migrations.get(name, 0.0),
                    }
                )
        return out


def multicore_units(
    energy_setting_name: str = "E1",
    cores: Sequence[int] = MULTICORE_CORES,
    modes: Sequence[str] = ("partitioned", "global"),
    loads: Sequence[float] = MULTICORE_LOADS,
    seeds: Sequence[int] = DEFAULT_SEEDS,
    horizon: float = DEFAULT_HORIZON,
    scheduler_names: Sequence[str] = MULTICORE_SCHEDULERS,
    apps=TABLE1,
    f_max: float = 1000.0,
    partition_strategy: str = "wfd",
    active_power: float = 0.0,
) -> List[CompareUnit]:
    """The sweep decomposed into (mode, m, load, seed) units.

    At ``m = 1`` both modes collapse to the uniprocessor engine, so only
    "partitioned" is emitted for that column (one anchor, not two
    duplicates).
    """
    nu, rho = FIGURE2_REQUIREMENT
    schedulers = tuple(SchedulerSpec.registry(n) for n in scheduler_names)
    units: List[CompareUnit] = []
    for mode in modes:
        for m in cores:
            if m == 1 and mode != "partitioned" and "partitioned" in modes:
                continue
            platform = PlatformSpec(
                energy=energy_setting_name,
                f_max=f_max,
                cores=m,
                mp_mode=mode,
                partition_strategy=partition_strategy,
                active_power=active_power,
            )
            for load in loads:
                for seed in seeds:
                    units.append(
                        CompareUnit(
                            key=(mode, m, load, seed),
                            schedulers=schedulers,
                            workload=WorkloadSpec(
                                load=load,
                                seed=seed,
                                horizon=horizon,
                                tuf_shape="step",
                                nu=nu,
                                rho=rho,
                                arrival_mode="periodic",
                                apps=tuple(apps),
                                f_max=f_max,
                                cores=m,
                            ),
                            platform=platform,
                        )
                    )
    return units


def run_multicore(
    energy_setting_name: str = "E1",
    cores: Sequence[int] = MULTICORE_CORES,
    modes: Sequence[str] = ("partitioned", "global"),
    loads: Sequence[float] = MULTICORE_LOADS,
    seeds: Sequence[int] = DEFAULT_SEEDS,
    horizon: float = DEFAULT_HORIZON,
    scheduler_names: Sequence[str] = MULTICORE_SCHEDULERS,
    apps=TABLE1,
    f_max: float = 1000.0,
    partition_strategy: str = "wfd",
    active_power: float = 0.0,
    workers: int = 1,
) -> MulticoreResult:
    """Run the multicore frontier sweep for one energy setting.

    Each (mode, m, load, seed) cell materialises one m-scaled workload
    and runs every scheduler on it under that cell's engine; utility
    and energy are normalised against the in-cell EDF run.  ``workers``
    shards cells over a process pool with the usual deterministic
    merge.
    """
    if BASELINE not in scheduler_names:
        raise ValueError(f"scheduler list must include the {BASELINE!r} normaliser")
    for mode in modes:
        if mode not in ("partitioned", "global"):
            raise ValueError(f"unknown mp mode {mode!r}")
    units = multicore_units(
        energy_setting_name,
        cores,
        modes,
        loads,
        seeds,
        horizon,
        scheduler_names,
        apps,
        f_max,
        partition_strategy,
        active_power,
    )
    outcomes = run_units(units, max_workers=workers)
    cells: Dict[Tuple[str, int, float], List] = {}
    for outcome in outcomes:
        mode, m, load, _seed = outcome.key
        cells.setdefault((mode, m, load), []).append(outcome.results)
    result = MulticoreResult(energy_setting=energy_setting_name)
    for mode in modes:
        for m in cores:
            for load in loads:
                runs = cells.get((mode, m, load))
                if runs is None:  # m=1 de-duplicated column
                    runs = cells[("partitioned", m, load)]
                migrations = {
                    name: sum(r[name].migrations for r in runs) / len(runs)
                    if hasattr(runs[0][name], "migrations")
                    else 0.0
                    for name in runs[0]
                }
                result.points.append(
                    MulticorePoint(
                        mode=mode,
                        cores=m,
                        load=load,
                        utility=normalized_series(runs, BASELINE, "utility"),
                        energy=normalized_series(runs, BASELINE, "energy"),
                        migrations=migrations,
                    )
                )
    return result
