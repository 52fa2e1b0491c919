"""The simulated and the live path agree on one arrival sequence.

A :class:`~repro.sim.workload.WorkloadTrace` is replayed through
:class:`~repro.svc.ServiceCore` with literal times (each release
submitted with its true demand, then decide, advance to the next event,
complete) and through :func:`~repro.sim.simulate` with an adaptive
runtime that only gates (UAM shed + admission, no re-allocation) — the
same gate the service runs.  Both must make the same non-idle
decisions, leave every job in the same state, and accrue the same
utility and processor energy.
"""

import math

import numpy as np
import pytest

from repro.experiments import synthesize_taskset
from repro.experiments.adaptive import uam_violating_trace
from repro.runtime import AdaptiveRuntime, RuntimeConfig
from repro.sched import make_scheduler
from repro.sim import Platform, materialize, simulate
from repro.sim.engine import EPS_TIME
from repro.sim.job import JobStatus
from repro.svc import ServiceCore

#: Long enough for the 1.2 overload to make the admission gate evict.
HORIZON = 2.0


def _trace(kind):
    if kind == "burst":
        return uam_violating_trace(seed=5, load=0.8, horizon=HORIZON)
    rng = np.random.default_rng(5)
    return materialize(synthesize_taskset(kind, rng), HORIZON, rng)


def _recording(scheduler, log, keymap=None):
    """Record every non-idle decision as (time, pick, frequency, aborts),
    job keys translated through ``keymap`` (service key -> trace key)."""
    decide = scheduler.decide
    keys = keymap if keymap is not None else {}

    def recorded(view):
        decision = decide(view)
        if decision.job is not None or decision.aborts:
            pick = decision.job
            log.append((
                view.time,
                keys.get(pick.key, pick.key) if pick is not None else None,
                decision.frequency,
                tuple(keys.get(j.key, j.key) for j in decision.aborts),
            ))
        return decision

    scheduler.decide = recorded
    return scheduler


def _run_service(trace, name, log):
    """Drive a ServiceCore through ``trace`` the way the engine's loop
    visits events; returns (core, per-spec job or shed status)."""
    keymap = {}
    core = ServiceCore(trace.taskset, Platform(),
                       _recording(make_scheduler(name), log, keymap))
    specs = list(trace)
    outcome_of = [JobStatus.PENDING] * len(specs)
    i, t = 0, 0.0
    for _ in range(100_000):
        while i < len(specs) and specs[i].release <= t + EPS_TIME:
            spec = specs[i]
            outcome = core.submit(spec.task.name, t, demand=spec.demand)
            if outcome.status == "admitted":
                outcome_of[i] = core.ready[-1]
                keymap[outcome.job] = f"{spec.task.name}:{spec.index}"
            else:
                outcome_of[i] = JobStatus.SHED
            i += 1
        if t >= trace.horizon - EPS_TIME:
            core.expire_overdue(t)
            return core, outcome_of
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
        if job is not None:
            core.advance(job, t_next - t, decision.frequency)
            core.complete_if_done(job, t_next)
        t = t_next
    raise AssertionError("service replay made no progress")


@pytest.mark.parametrize("name", ["EUA*", "EDF"])
@pytest.mark.parametrize("kind", [0.8, 1.2, "burst"])
def test_service_and_engine_make_the_same_run(kind, name):
    trace = _trace(kind)
    sim_log, svc_log = [], []
    result = simulate(trace, _recording(make_scheduler(name), sim_log), Platform(),
                      runtime=AdaptiveRuntime(RuntimeConfig(adapt=False)))
    core, outcome_of = _run_service(trace, name, svc_log)

    assert sim_log, "the replay must dispatch something"
    assert svc_log == sim_log
    for job, outcome in zip(result.jobs, outcome_of):
        if isinstance(outcome, JobStatus):
            assert job.status is outcome, job.key
        else:
            assert (job.status, job.completion_time) == (
                outcome.status, outcome.completion_time), job.key
    if kind == "burst":
        assert core.counters["shed_uam"] > 0
    if kind == 1.2:
        assert core.counters["evicted"] > 0
    assert core.utility_accrued == pytest.approx(result.metrics.accrued_utility,
                                                 rel=1e-12, abs=0.0)
    assert core.processor.stats.total_energy == pytest.approx(
        result.processor_stats.total_energy, rel=1e-12)
    assert core.processor.stats.total_energy > 0.0
