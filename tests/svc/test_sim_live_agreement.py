"""The simulated and the live path agree on one arrival sequence.

A :class:`~repro.sim.workload.WorkloadTrace` is replayed through
:class:`~repro.svc.ServiceCore` with literal times (due deferrals
activated, each release submitted with its true demand, then decide,
advance or idle to the next event, complete) and through
:func:`~repro.sim.simulate` with an adaptive runtime that only gates
(one UAM policy + admission, no re-allocation) — the same gate the
service runs.  Under every UAM policy both must make the same non-idle
decisions, key every job alike, leave it in the same state, and accrue
the same utility and processor energy, idle energy included.
"""

import math

import numpy as np
import pytest

from repro.experiments import synthesize_taskset
from repro.experiments.adaptive import uam_violating_trace
from repro.runtime import AdaptiveRuntime, RuntimeConfig, ViolationPolicy
from repro.sched import make_scheduler
from repro.sim import Platform, materialize, simulate
from repro.sim.engine import EPS_TIME
from repro.svc import ServiceCore

#: Long enough for the 1.2 overload to make the admission gate evict.
HORIZON = 2.0
#: Idle power on, so the energy agreement covers idle time too.
PLATFORM = Platform(idle_power=5.0)


def _trace(kind):
    if kind == "burst":
        return uam_violating_trace(seed=5, load=0.8, horizon=HORIZON)
    rng = np.random.default_rng(5)
    return materialize(synthesize_taskset(kind, rng), HORIZON, rng)


def _recording(scheduler, log):
    """Record every non-idle decision as (time, pick, frequency, aborts)."""
    decide = scheduler.decide

    def recorded(view):
        decision = decide(view)
        if decision.job is not None or decision.aborts:
            pick = decision.job
            log.append((view.time, pick.key if pick is not None else None,
                        decision.frequency, tuple(j.key for j in decision.aborts)))
        return decision

    scheduler.decide = recorded
    return scheduler


def _run_service(trace, name, policy, log):
    """Drive a ServiceCore through ``trace`` the way the engine's loop
    visits events; returns (core, every job the gate saw, by key)."""
    core = ServiceCore(trace.taskset, PLATFORM, _recording(make_scheduler(name), log),
                       policy=ViolationPolicy.parse(policy))
    seen = {}
    gate = core.runtime.on_arrival

    def recorded(job, t, ready, deferred=False):
        seen.setdefault(job.key, job)
        return gate(job, t, ready, deferred)

    core.runtime.on_arrival = recorded
    specs = list(trace)
    i, t = 0, 0.0
    for _ in range(100_000):
        # Deferred re-releases first, then fresh arrivals: the engine's order.
        core.activate_due(t)
        while i < len(specs) and specs[i].release <= t + EPS_TIME:
            spec = specs[i]
            outcome = core.submit(spec.task.name, t, demand=spec.demand)
            assert outcome.job in (None, f"{spec.task.name}:{spec.index}")
            i += 1
        if t >= trace.horizon - EPS_TIME:
            core.expire_overdue(t)
            return core, seen
        decision = core.decide(t)
        job = decision.job
        timer = core.next_timer(t)
        t_next = min(
            trace.horizon,
            specs[i].release if i < len(specs) else math.inf,
            timer if timer is not None else math.inf,
            t + job.remaining_demand / decision.frequency if job is not None else math.inf,
        )
        t_next = max(t_next, t)
        core.advance(job, t_next - t, decision.frequency)
        if job is not None:
            core.complete_if_done(job, t_next)
        t = t_next
    raise AssertionError("service replay made no progress")


@pytest.mark.parametrize("name", ["EUA*", "EDF"])
@pytest.mark.parametrize("kind", [0.8, 1.2, "burst"])
def test_service_and_engine_make_the_same_run(kind, name):
    _assert_same_run(kind, name, "shed")


@pytest.mark.parametrize("policy", ["defer", "admit-and-flag"])
@pytest.mark.parametrize("name", ["EUA*", "EDF"])
@pytest.mark.parametrize("kind", [0.8, 1.2, "burst"])
def test_service_and_engine_make_the_same_run_under_policy(kind, name, policy):
    _assert_same_run(kind, name, policy)


def _assert_same_run(kind, name, policy):
    trace = _trace(kind)
    sim_log, svc_log = [], []
    result = simulate(trace, _recording(make_scheduler(name), sim_log), PLATFORM,
                      runtime=AdaptiveRuntime(RuntimeConfig(policy=policy, adapt=False)))
    core, seen = _run_service(trace, name, policy, svc_log)

    assert sim_log, "the replay must dispatch something"
    assert svc_log == sim_log
    # One index rule: every service job key is its trace key.
    assert list(seen) == [job.key for job in result.jobs]
    for job in result.jobs:
        live = seen[job.key]
        assert (live.status, live.completion_time) == (
            job.status, job.completion_time), job.key
    counters = core.counters
    if kind == "burst":
        assert core.stats()["uam_violations"] > 0
        assert counters["shed_uam" if policy == "shed" else "submitted"] > 0
        if policy == "defer":
            assert counters["deferred"] > 0
    if kind == 1.2:
        assert counters["evicted"] > 0
    assert core.utility_accrued == pytest.approx(result.metrics.accrued_utility,
                                                 rel=1e-12, abs=0.0)
    svc_cpu, sim_cpu = core.processor.stats, result.processor_stats
    assert svc_cpu.total_energy > 0.0
    assert svc_cpu.idle_energy == pytest.approx(sim_cpu.idle_energy, rel=1e-12)
    if name == "EDF":  # at f_max every EDF run idles somewhere
        assert svc_cpu.idle_energy > 0.0
    assert svc_cpu.total_energy == pytest.approx(sim_cpu.total_energy, rel=1e-12)
