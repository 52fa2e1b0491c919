"""Programmatic ablation drivers (DESIGN.md AB1–AB8).

The benchmark files print and assert; these functions *compute*, so
ablations can be run from notebooks, the CLI, or scripts.  Each returns
plain row dictionaries compatible with
:func:`~repro.experiments.reporting.ascii_table`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..core import EUAStar
from ..sched import DASA, EDFStatic
from ..sim import SimulationResult
from .config import DEFAULT_HORIZON, DEFAULT_SEEDS
from .parallel import CompareUnit, PlatformSpec, SchedulerSpec, WorkloadSpec, run_units

__all__ = [
    "run_policy_grid",
    "ablate_dvs",
    "ablate_fopt",
    "ablate_dvs_method",
    "ablate_dasa",
]

def run_policy_grid(
    factories: Sequence[SchedulerSpec],
    load: float,
    seeds: Sequence[int] = DEFAULT_SEEDS,
    horizon: float = DEFAULT_HORIZON,
    energy: str = "E1",
    tuf_shape: str = "step",
    nu: float = 1.0,
    rho: float = 0.96,
    arrival_mode: str = "periodic",
    burst_override: Optional[int] = None,
    idle_power: float = 0.0,
    workers: int = 1,
) -> Dict[str, List[SimulationResult]]:
    """Run scheduler arms over shared per-seed workloads.

    Returns ``{scheduler name: [result per seed]}`` — the primitive
    behind every ablation bench.  The arms shard across a process pool
    with ``workers > 1`` (results merged in seed order, identical to
    serial).
    """
    units = [
        CompareUnit(
            key=(seed,),
            schedulers=tuple(factories),
            workload=WorkloadSpec(
                load=load,
                seed=seed,
                horizon=horizon,
                tuf_shape=tuf_shape,
                nu=nu,
                rho=rho,
                arrival_mode=arrival_mode,
                burst_override=burst_override,
            ),
            platform=PlatformSpec(energy=energy, idle_power=idle_power),
        )
        for seed in seeds
    ]
    out: Dict[str, List[SimulationResult]] = {}
    for outcome in run_units(units, max_workers=workers):
        for name, result in outcome.results.items():
            out.setdefault(name, []).append(result)
    return out


def _mean(results: List[SimulationResult], fn) -> float:
    return sum(fn(r) for r in results) / len(results)


def ablate_dvs(
    loads: Sequence[float] = (0.4, 0.8),
    seeds: Sequence[int] = DEFAULT_SEEDS,
    horizon: float = DEFAULT_HORIZON,
    workers: int = 1,
) -> List[Dict[str, float]]:
    """AB2: decideFreq on vs pinned f_max."""
    rows = []
    for load in loads:
        out = run_policy_grid(
            [SchedulerSpec.of(EUAStar, name="EUA*"),
             SchedulerSpec.of(EUAStar, name="noDVS", use_dvs=False)],
            load=load, seeds=seeds, horizon=horizon, workers=workers,
        )
        rows.append(
            {
                "load": load,
                "energy_ratio": _mean(out["EUA*"], lambda r: r.energy)
                / _mean(out["noDVS"], lambda r: r.energy),
                "utility_dvs": _mean(out["EUA*"], lambda r: r.metrics.normalized_utility),
                "utility_fmax": _mean(out["noDVS"], lambda r: r.metrics.normalized_utility),
            }
        )
    return rows


def ablate_fopt(
    load: float = 0.5,
    seeds: Sequence[int] = DEFAULT_SEEDS,
    horizon: float = DEFAULT_HORIZON,
    workers: int = 1,
) -> List[Dict[str, float]]:
    """AB3: the f° lower bound per energy setting."""
    rows = []
    for energy in ("E1", "E2", "E3"):
        out = run_policy_grid(
            [
                SchedulerSpec.of(EUAStar, name="EUA*"),
                SchedulerSpec.of(EUAStar, name="noFopt", use_fopt_bound=False),
                SchedulerSpec.of(EUAStar, name="fmax", use_dvs=False),
            ],
            load=load, seeds=seeds, horizon=horizon, energy=energy, workers=workers,
        )
        base = _mean(out["fmax"], lambda r: r.energy)
        rows.append(
            {
                "energy_setting": energy,
                "with_fopt": _mean(out["EUA*"], lambda r: r.energy) / base,
                "without_fopt": _mean(out["noFopt"], lambda r: r.energy) / base,
            }
        )
    return rows


def ablate_dvs_method(
    load: float = 0.8,
    bursts: Sequence[int] = (1, 3),
    seeds: Sequence[int] = DEFAULT_SEEDS,
    horizon: float = DEFAULT_HORIZON,
    workers: int = 1,
) -> List[Dict[str, float]]:
    """AB7: Algorithm-2 look-ahead vs the safe processor-demand rate."""
    rows = []
    for a in bursts:
        out = run_policy_grid(
            [
                SchedulerSpec.of(EUAStar, name="LA", dvs_method="lookahead"),
                SchedulerSpec.of(EUAStar, name="PD", dvs_method="demand"),
                SchedulerSpec.of(EUAStar, name="noDVS", use_dvs=False),
            ],
            load=load, seeds=seeds, horizon=horizon,
            tuf_shape="linear", nu=0.3, rho=0.9,
            arrival_mode="poisson", burst_override=a, workers=workers,
        )
        base = _mean(out["noDVS"], lambda r: r.energy)
        rows.append(
            {
                "a": a,
                "lookahead_energy": _mean(out["LA"], lambda r: r.energy) / base,
                "demand_energy": _mean(out["PD"], lambda r: r.energy) / base,
                "lookahead_utility": _mean(out["LA"], lambda r: r.metrics.normalized_utility),
                "demand_utility": _mean(out["PD"], lambda r: r.metrics.normalized_utility),
            }
        )
    return rows


def ablate_dasa(
    loads: Sequence[float] = (0.6, 1.5),
    seeds: Sequence[int] = DEFAULT_SEEDS,
    horizon: float = DEFAULT_HORIZON,
    workers: int = 1,
) -> List[Dict[str, float]]:
    """AB8: EUA* vs the energy-oblivious DASA baseline."""
    rows = []
    for load in loads:
        out = run_policy_grid(
            [SchedulerSpec.of(EUAStar, name="EUA*"),
             SchedulerSpec.of(DASA, name="DASA"),
             SchedulerSpec.of(EDFStatic, name="EDF")],
            load=load, seeds=seeds, horizon=horizon, workers=workers,
        )
        rows.append(
            {
                "load": load,
                "eua_utility": _mean(out["EUA*"], lambda r: r.metrics.normalized_utility),
                "dasa_utility": _mean(out["DASA"], lambda r: r.metrics.normalized_utility),
                "edf_utility": _mean(out["EDF"], lambda r: r.metrics.normalized_utility),
                "energy_ratio": _mean(out["EUA*"], lambda r: r.energy)
                / _mean(out["DASA"], lambda r: r.energy),
            }
        )
    return rows
