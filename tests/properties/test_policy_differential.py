"""Differential properties between policies.

On a uniprocessor with a single energy model, EUA*'s UER at ``f_m`` is
utility density divided by the constant ``E(f_m)`` — so EUA* with DVS
disabled must produce *exactly* the schedule DASA produces at ``f_m``
(same dispatches, same aborts, same utility, same energy).  Any
divergence means one of the two policies drifted from Algorithm 1's
shared skeleton.

On step-TUF workloads that are underloaded in the budget sense (EDF
completes every job when each demand is its Chebyshev allocation),
EUA*-noDVS accrues exactly EDF's utility (Theorem 2).  At overload
neither dominates: UER ranking is greedy utility density, which can
lose a knapsack EDF's urgency order happens to win — one pinned case
documents that.  EUA*'s accrued utility is invariant to uniform scaling
of all TUF heights.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.arrivals import UAMSpec
from repro.core import EUAStar
from repro.cpu import EnergyModel, FrequencyScale, Processor
from repro.demand import NormalDemand
from repro.sched import DASA, EDFStatic
from repro.sim import Engine, JobStatus, Task, TaskSet, WorkloadTrace, materialize
from repro.tuf import ScaledTUF, StepTUF


def _step_taskset(load, params):
    """One step-TUF task per ``(window, umax)``, scaled to ``load``."""
    tasks = []
    for i, (window, umax) in enumerate(params):
        mean = window * 90.0
        tasks.append(
            Task(f"T{i}", StepTUF(umax, window), NormalDemand(mean, mean * 1e-6),
                 UAMSpec(1, window))
        )
    return TaskSet(tasks).scaled_to_load(load, 1000.0)


@st.composite
def step_scenarios(draw):
    n = draw(st.integers(min_value=2, max_value=5))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    load = draw(st.floats(min_value=0.3, max_value=1.9))
    params = [
        (draw(st.floats(min_value=0.05, max_value=0.7)),
         draw(st.floats(min_value=1.0, max_value=100.0)))
        for _ in range(n)
    ]
    return _step_taskset(load, params), seed


def _trace(taskset, seed):
    return materialize(taskset, 1.2, np.random.default_rng(seed))


def _run_trace(trace, policy):
    cpu = Processor(FrequencyScale.powernow_k6(), EnergyModel.e1())
    return Engine(trace, policy, cpu, record_trace=True).run()


def _run(taskset, seed, policy):
    return _run_trace(_trace(taskset, seed), policy)


@given(step_scenarios())
@settings(max_examples=30, deadline=None)
def test_eua_nodvs_equals_dasa(scenario):
    taskset, seed = scenario
    eua = _run(taskset, seed, EUAStar(use_dvs=False))
    dasa = _run(taskset, seed, DASA())
    assert eua.metrics.accrued_utility == pytest.approx(dasa.metrics.accrued_utility)
    assert eua.energy == pytest.approx(dasa.energy)
    assert [j.status for j in eua.jobs] == [j.status for j in dasa.jobs]
    assert eua.trace.job_order() == dasa.trace.job_order()


@given(step_scenarios())
@settings(max_examples=25, deadline=None)
def test_eua_equals_edf_when_edf_completes_every_job(scenario):
    """Theorem 2: when EDF completes every job on step TUFs, EUA*
    without DVS accrues exactly EDF's utility.

    "Every job" is judged on the budgeted workload (each demand set to
    its allocation), the demand EUA*'s feasibility test sees.  Judged on
    true demands the claim is false: at load 1.0014, seed 0, windows
    (0.0625, 0.25), both U=1, the allocations sum to utilisation > 1, so
    EUA* aborts every T1 job as individually infeasible, while EDF,
    running the slightly smaller true demands, finishes them all
    (19 vs 23).
    """
    taskset, seed = scenario
    trace = _trace(taskset, seed)
    budgeted = WorkloadTrace(trace.taskset, trace.horizon, [
        dataclasses.replace(spec, demand=spec.task.allocation) for spec in trace
    ])
    edf_budgeted = _run_trace(budgeted, EDFStatic())
    assume(all(j.status is JobStatus.COMPLETED for j in edf_budgeted.jobs))
    eua = _run_trace(trace, EUAStar(use_dvs=False))
    edf = _run_trace(trace, EDFStatic())
    assert eua.metrics.accrued_utility == pytest.approx(edf.metrics.accrued_utility)


def test_eua_overload_loss_to_edf():
    """At overload greedy UER can lose to EDF: a two-item knapsack.

    Load 1.125, seed 0, three step-TUF tasks.  At t=0.75 T0:1 (U=2,
    ~116.5 Mcycles left) and T1:6 (U=1, ~46.8 Mcycles) share critical
    time 0.875; 125 Mcycles remain at f_max, so only one can finish.
    EUA* keeps the denser T1:6 (1/46.8 > 2/116.5 per Mcycle) and aborts
    T0:1; EDF runs T0:1 to completion and lets T1:6 expire.  Theorem 2
    promises equality only at underload, so this is the known limit of
    DASA-style density ranking, not a defect.
    """
    taskset = _step_taskset(1.125, [(0.4375, 2.0), (0.125, 1.0), (0.6875, 1.0)])
    eua = _run(taskset, 0, EUAStar(use_dvs=False))
    edf = _run(taskset, 0, EDFStatic())
    assert eua.metrics.accrued_utility == 12.0
    assert edf.metrics.accrued_utility == 13.0
    differ = {
        a.key: (a.status, b.status)
        for a, b in zip(eua.jobs, edf.jobs)
        if a.status is not b.status
    }
    assert differ == {
        "T0:1": (JobStatus.ABORTED, JobStatus.COMPLETED),
        "T1:6": (JobStatus.COMPLETED, JobStatus.EXPIRED),
    }


@given(step_scenarios(), st.floats(min_value=0.5, max_value=20.0))
@settings(max_examples=20, deadline=None)
def test_uniform_utility_scaling_invariance(scenario, factor):
    """Multiplying every TUF by the same constant scales accrued
    utility by exactly that constant and changes no decision."""
    taskset, seed = scenario
    scaled_tasks = TaskSet(
        Task(t.name, ScaledTUF(t.tuf, factor), t.demand, t.uam, nu=t.nu, rho=t.rho)
        for t in taskset
    )
    base = _run(taskset, seed, EUAStar())
    scaled = _run(scaled_tasks, seed, EUAStar())
    assert scaled.metrics.accrued_utility == pytest.approx(
        factor * base.metrics.accrued_utility, rel=1e-9
    )
    assert scaled.energy == pytest.approx(base.energy, rel=1e-9)
    assert [j.status for j in scaled.jobs] == [j.status for j in base.jobs]
