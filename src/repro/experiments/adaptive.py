"""Static vs adaptive EUA* under demand drift and UAM violation.

The paper evaluates EUA* on workloads that honour their declared
parameters.  This experiment measures what the :mod:`repro.runtime`
layer buys when they don't:

* :func:`drifting_trace` materialises a workload whose true per-job
  demands are rescaled mid-run while the *declared* distributions keep
  their original moments — exactly the mismatch the drift detectors
  watch for;
* :func:`uam_violating_trace` injects burst arrivals past the declared
  ``⟨a, P⟩`` envelope (the trace is deliberately non-compliant, so its
  construction skips ``verify_uam``);
* :func:`compare_adaptive` runs static EUA* and EUA* + adaptive runtime
  over the *identical* trace and reports both outcomes side by side.

Under upward drift (the default, ``drift_factor = 2``) the static
budgets under-provision: feasible-looking schedules silently miss
terminations, and every missed job burned cycles for zero utility.  The
adaptive arm inflates ``c_i`` from observed completions, so
``decideFreq`` provisions honestly and infeasibility is discovered at
insertion time instead of at the deadline — strictly more utility,
typically at *lower* energy (cycles stop being wasted on jobs that
expire).  ``tests/experiments/test_adaptive.py`` pins the headline
claim at a fixed seed: the adaptive arm accrues at least the static
utility and strictly improves the utility-or-energy frontier.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional

import numpy as np

from ..core import EUAStar
from ..runtime import AdaptiveRuntime, RuntimeConfig
from ..sim import Platform, SimulationResult, simulate
from ..sim.workload import JobSpec, WorkloadTrace, materialize
from .parallel import WorkloadSpec
from .workload import synthesize_taskset

__all__ = [
    "drifting_trace",
    "uam_violating_trace",
    "AdaptiveComparison",
    "compare_adaptive",
]


def drifting_trace(
    seed: int = 11,
    load: float = 0.9,
    horizon: float = 2.0,
    drift_at: float = 0.3,
    drift_factor: float = 2.0,
    platform: Optional[Platform] = None,
) -> WorkloadTrace:
    """A workload whose true demands drift mid-run.

    Jobs released at or after ``drift_at · horizon`` have their true
    cycle demand scaled by ``drift_factor``; the task set's *declared*
    distributions are untouched, so every scheduler parameter derived
    offline (``c_i``, ``f°_i``) describes the pre-drift regime only.
    ``drift_factor > 1`` (default) models demand growth
    (under-provisioned budgets → missed terminations); ``< 1`` models
    demand collapse (over-provisioned budgets).
    """
    platform = platform if platform is not None else Platform.powernow_k6()
    taskset, base = WorkloadSpec(load, seed, horizon, f_max=platform.scale.f_max).build()
    onset = drift_at * horizon
    specs: List[JobSpec] = [
        replace(spec, demand=spec.demand * drift_factor)
        if spec.release >= onset
        else spec
        for spec in base
    ]
    return WorkloadTrace(taskset, horizon, specs)


def uam_violating_trace(
    seed: int = 11,
    load: float = 0.8,
    horizon: float = 2.0,
    burst_factor: int = 2,
    platform: Optional[Platform] = None,
) -> WorkloadTrace:
    """A workload that bursts past every task's declared ``⟨a, P⟩``.

    Each materialised (compliant) arrival is duplicated into
    ``burst_factor`` simultaneous releases with independent demands, so
    any window that held ``a`` arrivals now holds ``a · burst_factor`` —
    a deliberate envelope violation (construction skips ``verify_uam``).
    """
    if burst_factor < 2:
        raise ValueError(f"burst_factor must be >= 2, got {burst_factor!r}")
    platform = platform if platform is not None else Platform.powernow_k6()
    rng = np.random.default_rng(seed)
    taskset = synthesize_taskset(load, rng, f_max=platform.scale.f_max)
    base = materialize(taskset, horizon, rng)
    specs: List[JobSpec] = []
    counters: Dict[str, int] = {t.name: 0 for t in taskset}
    for spec in base:
        name = spec.task.name
        for _ in range(burst_factor):
            extra = float(spec.task.demand.sample(rng))
            specs.append(
                JobSpec(
                    task=spec.task,
                    index=counters[name],
                    release=spec.release,
                    demand=extra,
                )
            )
            counters[name] += 1
    return WorkloadTrace(taskset, horizon, specs)


@dataclass(frozen=True)
class AdaptiveComparison:
    """Static vs adaptive EUA* on one identical trace."""

    static: SimulationResult
    adaptive: SimulationResult
    #: The adaptive arm's runtime counters (see ``AdaptiveRuntime.summary``).
    runtime_summary: Dict[str, float]

    @property
    def utility_gain(self) -> float:
        """Adaptive − static accrued utility (absolute)."""
        return self.adaptive.metrics.accrued_utility - self.static.metrics.accrued_utility

    @property
    def energy_saving(self) -> float:
        """Static − adaptive energy (positive = adaptive cheaper)."""
        return self.static.metrics.energy - self.adaptive.metrics.energy

    @property
    def improves_frontier(self) -> bool:
        """The headline claim: strictly more utility, or at least as
        much utility at strictly lower energy."""
        eps_u = 1e-9 * max(1.0, abs(self.static.metrics.accrued_utility))
        eps_e = 1e-9 * max(1.0, abs(self.static.metrics.energy))
        if self.utility_gain > eps_u:
            return True
        return self.utility_gain >= -eps_u and self.energy_saving > eps_e

    def rows(self) -> List[Dict[str, object]]:
        """Table rows for the CLI / reporting helpers."""
        out = []
        for label, result in (("static", self.static), ("adaptive", self.adaptive)):
            m = result.metrics
            out.append(
                {
                    "arm": label,
                    "utility": f"{m.accrued_utility:.3f}",
                    "norm_utility": f"{m.normalized_utility:.4f}",
                    "energy": f"{m.energy:.3f}",
                    "completed": int(m.completed),
                    "expired": int(m.expired),
                    "aborted": int(m.aborted),
                    "shed": int(m.shed),
                }
            )
        return out


def compare_adaptive(
    trace: Optional[WorkloadTrace] = None,
    seed: int = 11,
    load: float = 0.9,
    horizon: float = 2.0,
    drift_at: float = 0.3,
    drift_factor: float = 2.0,
    config: Optional[RuntimeConfig] = None,
    platform: Optional[Platform] = None,
) -> AdaptiveComparison:
    """Run static EUA* and EUA* + adaptive runtime on the same trace.

    With no ``trace`` given, a :func:`drifting_trace` is synthesised
    from the remaining parameters.  Fresh scheduler instances per arm;
    the runtime's ``finalize()`` guarantees the shared task set leaves
    the adaptive arm with its original allocations, so arm order cannot
    matter.
    """
    platform = platform if platform is not None else Platform.powernow_k6()
    if trace is None:
        trace = drifting_trace(
            seed=seed,
            load=load,
            horizon=horizon,
            drift_at=drift_at,
            drift_factor=drift_factor,
            platform=platform,
        )
    static = simulate(trace, EUAStar(), platform)
    runtime = AdaptiveRuntime(config or RuntimeConfig())
    adaptive = simulate(trace, EUAStar(), platform, runtime=runtime)
    return AdaptiveComparison(
        static=static, adaptive=adaptive, runtime_summary=runtime.summary()
    )
