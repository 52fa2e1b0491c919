"""Figure 2 — normalised utility and energy vs system load.

The paper's headline comparison (Section 5.1): periodic task sets with
step TUFs, ``{ν=1, ρ=0.96}``, loads ϱ from 0.2 to 1.8, energy settings
E1/E2/E3; every scheme's accrued utility and consumed energy divided by
the EDF-at-``f_max`` (no-DVS) run on the identical workload.

Panels: 2(a) utility under E1, 2(b) energy under E1, 2(c) utility under
E3, 2(d) energy under E3 (the text notes E2 is "similar" — the driver
accepts any setting, and a dedicated bench covers E2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from ..analysis.stats import SummaryStat, normalized_series
from .config import (
    DEFAULT_HORIZON,
    DEFAULT_SEEDS,
    FIGURE2_LOADS,
    FIGURE2_REQUIREMENT,
    TABLE1,
)
from .parallel import CompareUnit, PlatformSpec, SchedulerSpec, WorkloadSpec, run_units

__all__ = [
    "Figure2Point",
    "Figure2Result",
    "run_figure2",
    "figure2_units",
    "FIGURE2_SCHEDULERS",
]

#: The figure's series: EUA*, the strongest RT-DVS baseline with
#: abortion, its no-abort variant, and the EDF@f_max normaliser.
FIGURE2_SCHEDULERS: Tuple[str, ...] = ("EUA*", "LA-EDF", "LA-EDF-NA", "EDF")

BASELINE = "EDF"


@dataclass
class Figure2Point:
    """One load point: per-scheduler normalised utility and energy."""

    load: float
    utility: Dict[str, SummaryStat]
    energy: Dict[str, SummaryStat]


@dataclass
class Figure2Result:
    """A full sweep for one energy setting."""

    energy_setting: str
    points: List[Figure2Point] = field(default_factory=list)

    def series(self, metric: str, scheduler: str) -> List[Tuple[float, float]]:
        """(load, mean) pairs for one curve of the figure."""
        table = {"utility": lambda p: p.utility, "energy": lambda p: p.energy}[metric]
        return [(p.load, table(p)[scheduler].mean) for p in self.points]

    def series_error(self, metric: str, scheduler: str) -> List[float]:
        """Per-point confidence half-widths (error bars) for one curve,
        aligned with :meth:`series`."""
        table = {"utility": lambda p: p.utility, "energy": lambda p: p.energy}[metric]
        return [table(p)[scheduler].half_width for p in self.points]

    def rows(self) -> List[Dict[str, object]]:
        """Flat rows (one per load × scheduler) for reporting."""
        out: List[Dict[str, object]] = []
        for p in self.points:
            for name in p.utility:
                out.append(
                    {
                        "energy_setting": self.energy_setting,
                        "load": p.load,
                        "scheduler": name,
                        "norm_utility": p.utility[name].mean,
                        "norm_energy": p.energy[name].mean,
                    }
                )
        return out


def figure2_units(
    energy_setting_name: str = "E1",
    loads: Sequence[float] = FIGURE2_LOADS,
    seeds: Sequence[int] = DEFAULT_SEEDS,
    horizon: float = DEFAULT_HORIZON,
    scheduler_names: Sequence[str] = FIGURE2_SCHEDULERS,
    apps=TABLE1,
    f_max: float = 1000.0,
) -> List[CompareUnit]:
    """The sweep decomposed into independent (load, seed) units."""
    nu, rho = FIGURE2_REQUIREMENT
    schedulers = tuple(SchedulerSpec.registry(n) for n in scheduler_names)
    platform = PlatformSpec(energy=energy_setting_name, f_max=f_max)
    return [
        CompareUnit(
            key=(load, seed),
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
            ),
            platform=platform,
        )
        for load in loads
        for seed in seeds
    ]


def run_figure2(
    energy_setting_name: str = "E1",
    loads: Sequence[float] = FIGURE2_LOADS,
    seeds: Sequence[int] = DEFAULT_SEEDS,
    horizon: float = DEFAULT_HORIZON,
    scheduler_names: Sequence[str] = FIGURE2_SCHEDULERS,
    apps=TABLE1,
    f_max: float = 1000.0,
    workers: int = 1,
) -> Figure2Result:
    """Run the Figure 2 experiment for one energy setting.

    Every (load, seed) pair synthesises a fresh periodic step-TUF task
    set and materialises one workload trace; all schedulers then run on
    that identical trace.  ``workers > 1`` shards the (load, seed)
    units across a process pool; the merge preserves (load, seed)
    order, so the result is identical to the serial sweep.
    """
    if BASELINE not in scheduler_names:
        raise ValueError(f"scheduler list must include the {BASELINE!r} normaliser")
    units = figure2_units(
        energy_setting_name, loads, seeds, horizon, scheduler_names, apps, f_max
    )
    outcomes = run_units(units, max_workers=workers)
    by_load: Dict[float, List[Dict[str, object]]] = {}
    for outcome in outcomes:
        by_load.setdefault(outcome.key[0], []).append(outcome.results)
    result = Figure2Result(energy_setting=energy_setting_name)
    for load in loads:
        runs = by_load[load]
        result.points.append(
            Figure2Point(
                load=load,
                utility=normalized_series(runs, BASELINE, "utility"),
                energy=normalized_series(runs, BASELINE, "energy"),
            )
        )
    return result
