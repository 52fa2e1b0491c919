"""Figure 3 — EUA*'s energy vs load under different UAM burst sizes.

Section 5.2: every task gets a **linear** TUF (slope ``U_max / P``),
requirement ``{ν=0.3, ρ=0.9}``, energy setting E1.  The UAM parameter
``a`` sweeps 1→3 while the load ϱ sweeps 0.2→1.8; reported energy is
normalised to **EUA\\* without DVS** (always ``f_m``) on the same
workload.

Expected shape (paper): during overloads energy is insensitive to
``a``; during underloads energy *rises* with ``a`` because burstier
arrivals spoil slack estimation (at ϱ=0.5 the paper reads ≈0.26 for
⟨1,P⟩ and ≈0.61 for ⟨3,P⟩).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from ..analysis.stats import SummaryStat, summarize
from ..core import EUAStar
from .config import (
    DEFAULT_HORIZON,
    DEFAULT_SEEDS,
    FIGURE3_BURSTS,
    FIGURE3_LOADS,
    FIGURE3_REQUIREMENT,
    TABLE1,
)
from .parallel import CompareUnit, PlatformSpec, SchedulerSpec, WorkloadSpec, run_units

__all__ = ["Figure3Result", "run_figure3", "figure3_units"]


@dataclass
class Figure3Result:
    """Normalised EUA* energy per (burst size, load)."""

    #: energy[a][load] = normalised energy (vs EUA* pinned at f_max).
    energy: Dict[int, Dict[float, SummaryStat]] = field(default_factory=dict)

    def series(self, a: int) -> List[Tuple[float, float]]:
        return [(load, stat.mean) for load, stat in sorted(self.energy[a].items())]

    def rows(self) -> List[Dict[str, object]]:
        out: List[Dict[str, object]] = []
        for a, by_load in sorted(self.energy.items()):
            for load, stat in sorted(by_load.items()):
                out.append({"a": a, "load": load, "norm_energy": stat.mean})
        return out


def figure3_units(
    bursts: Sequence[int] = FIGURE3_BURSTS,
    loads: Sequence[float] = FIGURE3_LOADS,
    seeds: Sequence[int] = DEFAULT_SEEDS,
    horizon: float = DEFAULT_HORIZON,
    apps=TABLE1,
    f_max: float = 1000.0,
    energy_setting_name: str = "E1",
) -> List[CompareUnit]:
    """The sweep decomposed into independent (a, load, seed) units."""
    nu, rho = FIGURE3_REQUIREMENT
    schedulers = (
        SchedulerSpec.of(EUAStar, name="EUA*"),
        SchedulerSpec.of(EUAStar, name="EUA*-noDVS", use_dvs=False),
    )
    platform = PlatformSpec(energy=energy_setting_name, f_max=f_max)
    return [
        CompareUnit(
            key=(a, load, seed),
            schedulers=schedulers,
            workload=WorkloadSpec(
                load=load,
                seed=seed,
                horizon=horizon,
                tuf_shape="linear",
                nu=nu,
                rho=rho,
                arrival_mode="poisson",
                burst_override=a,
                apps=tuple(apps),
                f_max=f_max,
            ),
            platform=platform,
        )
        for a in bursts
        for load in loads
        for seed in seeds
    ]


def run_figure3(
    bursts: Sequence[int] = FIGURE3_BURSTS,
    loads: Sequence[float] = FIGURE3_LOADS,
    seeds: Sequence[int] = DEFAULT_SEEDS,
    horizon: float = DEFAULT_HORIZON,
    apps=TABLE1,
    f_max: float = 1000.0,
    energy_setting_name: str = "E1",
    workers: int = 1,
) -> Figure3Result:
    """Run the Figure 3 experiment.

    ``workers > 1`` shards the (a, load, seed) units across a process
    pool with a seed-order-preserving merge — values are identical to
    the serial sweep.
    """
    units = figure3_units(
        bursts, loads, seeds, horizon, apps, f_max, energy_setting_name
    )
    outcomes = run_units(units, max_workers=workers)
    ratios: Dict[Tuple[int, float], List[float]] = {}
    for outcome in outcomes:
        a, load, _ = outcome.key
        denom = outcome.results["EUA*-noDVS"].energy
        ratio = outcome.results["EUA*"].energy / denom if denom > 0 else 1.0
        ratios.setdefault((a, load), []).append(ratio)
    result = Figure3Result()
    for a in bursts:
        result.energy[a] = {load: summarize(ratios[(a, load)]) for load in loads}
    return result
