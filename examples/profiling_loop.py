#!/usr/bin/env python
"""Closing the profiling loop: off-line moments from on-line observation.

The paper assumes ``E(Y_i)`` and ``Var(Y_i)`` "are determined through
either online or off-line profiling" (§2.3).  This example runs the
full loop:

1. **Day 0** — ship with pessimistic guesses (WCET-style: mean set to
   the worst case, no variance information).  The Chebyshev budgets are
   bloated, so DVS runs faster than necessary.
2. **Profile** — feed a production run's jobs to a
   :class:`~repro.demand.DemandProfiler`; it records the *actual*
   cycles of every completed job (Welford, numerically stable, O(1)
   per job).
3. **Day 1** — rebuild the task set with the profiled empirical
   distributions, re-derive ``c_i`` and re-simulate: same assurances,
   lower budgets, lower frequencies, less energy.

Also shows a Markov-modulated demand (context-dependent execution
times: a tracking filter alternating between *search* and *locked*
modes), which the profiler summarises just as well.
"""

import numpy as np

from repro import (
    EnergyModel,
    EUAStar,
    Platform,
    Task,
    TaskSet,
    UAMSpec,
    materialize,
    simulate,
    StepTUF,
)
from repro.analysis import verify_assurances
from repro.demand import (
    DemandProfiler,
    DeterministicDemand,
    MarkovModulatedDemand,
    NormalDemand,
)
from repro.sim import WorkloadTrace
from repro.sim.workload import JobSpec


def rebudget_trace(trace: WorkloadTrace, model: TaskSet) -> WorkloadTrace:
    """Keep the trace's true releases/demands but bind each job to the
    *model* task of the same name, whose (possibly pessimistic) demand
    distribution determines the scheduler's Chebyshev budget."""
    specs = [
        JobSpec(model.by_name(j.task.name), j.index, j.release, j.demand)
        for j in trace
    ]
    return WorkloadTrace(model, trace.horizon, specs)


def build_day0() -> "tuple[TaskSet, dict]":
    """Conservative launch configuration: WCET-style demand guesses."""
    # True behaviour (unknown to the scheduler): a two-mode filter.
    tracking_truth = MarkovModulatedDemand(
        [[0.85, 0.15], [0.25, 0.75]],
        [NormalDemand(12.0, 1.0), NormalDemand(30.0, 4.0)],  # search / locked
    )
    video_truth = NormalDemand(8.0, 0.5)

    # What we *ship* with: worst-case-ish constants, far above the means.
    tasks = [
        Task("tracking", StepTUF(40.0, 0.10), DeterministicDemand(45.0),
             UAMSpec(1, 0.10), nu=1.0, rho=0.95),
        Task("video", StepTUF(15.0, 1.0 / 30.0), DeterministicDemand(14.0),
             UAMSpec(1, 1.0 / 30.0), nu=1.0, rho=0.95),
    ]
    return TaskSet(tasks), {"tracking": tracking_truth, "video": video_truth}


def with_true_demands(taskset: TaskSet, truths) -> TaskSet:
    """The workload generator draws from the *true* distributions."""
    return TaskSet(
        Task(t.name, t.tuf, truths[t.name], t.uam, nu=t.nu, rho=t.rho)
        for t in taskset
    )


def with_profiled_demands(taskset: TaskSet, profiler: DemandProfiler) -> TaskSet:
    """Day-1 configuration: budgets from the profiled distributions."""
    return TaskSet(
        Task(t.name, t.tuf, profiler.empirical_distribution(t.name), t.uam,
             nu=t.nu, rho=t.rho)
        for t in taskset
    )


def main() -> None:
    platform = Platform.powernow_k6(EnergyModel.e1())
    rng = np.random.default_rng(2026)
    shipped, truths = build_day0()
    real_world = with_true_demands(shipped, truths)

    # --- Day 0: true demands, shipped (pessimistic) budgets ------------
    trace = materialize(real_world, 20.0, rng)
    profiler = DemandProfiler()
    day0 = simulate(rebudget_trace(trace, shipped), EUAStar(), platform=platform)
    profiler.record_completed(day0.jobs)

    print("=== Day 0 (WCET-style budgets) ===")
    for t in shipped:
        print(f"  {t.name:9s} budget c = {t.allocation:6.2f} Mc")
    print(f"  energy {day0.energy:.3e}, avg f {day0.processor_stats.average_frequency:.0f} MHz")

    # --- Profile --------------------------------------------------------
    print("\n=== Profiled moments (from completed jobs) ===")
    for name in profiler.tasks():
        print(f"  {name:9s} n={profiler.count(name):4d}  "
              f"E(Y)={profiler.mean(name):6.2f}  Var(Y)={profiler.variance(name):6.2f}")

    # --- Day 1: re-derive budgets from the profile ----------------------
    day1_model = with_profiled_demands(shipped, profiler)
    fresh = materialize(
        with_true_demands(shipped, truths), 20.0, np.random.default_rng(2027)
    )
    day1 = simulate(rebudget_trace(fresh, day1_model), EUAStar(), platform=platform)

    print("\n=== Day 1 (profiled budgets) ===")
    for t in day1_model:
        print(f"  {t.name:9s} budget c = {t.allocation:6.2f} Mc")
    print(f"  energy {day1.energy:.3e}, avg f {day1.processor_stats.average_frequency:.0f} MHz")
    print(f"  energy saved vs Day 0: {1.0 - day1.energy / day0.energy:.1%}")

    reports = verify_assurances(day1, day1_model)
    print("  assurances:", {k: f"{r.attainment:.2f}" for k, r in reports.items()})


if __name__ == "__main__":
    main()
