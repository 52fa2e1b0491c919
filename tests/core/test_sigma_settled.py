"""σ construction stops once its head is settled.

EUA* and DASA build σ only to dispatch its head.  A probe bisects to
the right of every σ entry with an equal or earlier critical time, so
once no ranked job left has a critical time before the head's, the
rest of the walk can only change σ's tail: an unobserved scheduler
stops there (``IncrementalSchedule.until_settled``).  An observer that
records events or metrics keeps the full walk, since every ranked
job's INSERT/REJECT is on its record.

These tests pin the stop both ways: the decision (job, frequency,
aborts) equals the full walk's and the reference arm's, and the number
of probes equals the first point at which the head is settled — no
earlier (a wrong head) and no later (a wasted probe).
"""

from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arrivals import UAMSpec
from repro.core import EUAStar
from repro.core.feasibility import (
    IncrementalSchedule,
    insert_by_critical_time,
    schedule_feasible,
)
from repro.cpu import EnergyModel, FrequencyScale
from repro.demand import DeterministicDemand
from repro.experiments import synthesize_taskset
from repro.ext import BudgetedEUA
from repro.obs import Observer
from repro.sched import DASA
from repro.sim import Job, Task, TaskSet, materialize, simulate
from repro.sim.scheduler import SchedulerView, SchedulingEvent
from repro.tuf import LinearTUF, PiecewiseLinearTUF, StepTUF

SCALE = FrequencyScale.powernow_k6()  # f_max = 1000 cycles/s: mean 100 runs 0.1 s
MODEL = EnergyModel.e1()


def _task(name, crit, umax, mean=100.0):
    return Task(name, StepTUF(umax, crit), DeterministicDemand(mean), UAMSpec(1, crit))


def _zero_tail_task(name, mean=100.0):
    """Utility drops to zero after 0.05 s but the job may run until 2 s,
    so at ``f_max`` it is feasible with zero UER; its critical time
    (0.025 at ν = 0.5) is earlier than any other task's here."""
    tuf = PiecewiseLinearTUF([(0.0, 5.0), (0.05, 0.0), (2.0, 0.0)])
    return Task(name, tuf, DeterministicDemand(mean), UAMSpec(1, 2.0), nu=0.5)


def _view(tasks, jobs, time=0.0, energy_consumed=0.0):
    return SchedulerView(
        time=time,
        ready=jobs,
        taskset=TaskSet(tasks),
        scale=SCALE,
        energy_model=MODEL,
        event=SchedulingEvent.ARRIVAL,
        arrivals_in_window={t.name: [j.release for j in jobs if j.task is t] for t in tasks},
        energy_consumed=energy_consumed,
    )


def _ready(sched, tasks, observed=False):
    sched.setup(TaskSet(tasks), SCALE, MODEL)
    if observed:
        sched.bind_observer(Observer())
    return sched


@contextmanager
def _counted_probes():
    """Records every ``IncrementalSchedule.try_insert`` call's job."""
    calls = []
    original = IncrementalSchedule.try_insert

    def counting(self, job):
        calls.append(job)
        return original(self, job)

    IncrementalSchedule.try_insert = counting
    try:
        yield calls
    finally:
        IncrementalSchedule.try_insert = original


@pytest.fixture
def probes():
    with _counted_probes() as calls:
        yield calls


def _key(decision):
    job = decision.job.key if decision.job is not None else None
    return job, decision.frequency, tuple(j.key for j in decision.aborts)


def _decide(make, tasks, jobs, observed=False, incremental=True, **view_kw):
    sched = _ready(make(), tasks, observed)
    sched.incremental = incremental
    return sched.decide(_view(tasks, jobs, **view_kw))


def _settle_count(ranked, now, strict=False):
    """Probes a walk that stops once σ's head is settled makes: an
    independent restatement over the reference σ (a plain list)."""
    sigma = []
    probed = 0
    for i, (metric, _, job) in enumerate(ranked):
        if sigma and min(e[1] for e in ranked[i:]) >= sigma[0].critical_time:
            break
        if metric <= 0.0:
            break
        probed += 1
        tentative = insert_by_critical_time(sigma, job)
        if schedule_feasible(tentative, now, SCALE.f_max):
            sigma = tentative
        elif strict:
            break
    return probed


def _eua_all_ways(tasks, jobs, probes, make=EUAStar, **view_kw):
    """Unobserved decision after asserting it equals the observed one and
    the reference arm's; also returns the unobserved probe count."""
    del probes[:]
    plain = _decide(make, tasks, jobs, **view_kw)
    n_plain = len(probes)
    observed = _decide(make, tasks, jobs, observed=True, **view_kw)
    reference = _decide(make, tasks, jobs, incremental=False, **view_kw)
    assert _key(plain) == _key(observed) == _key(reference)
    return plain, n_plain


def _jobs(tasks):
    return [Job(t, 0, 0.0, t.allocation) for t in tasks]


# ----------------------------------------------------------------------
# Hand-built cases
# ----------------------------------------------------------------------
class TestHandBuilt:
    def test_tie_with_head_is_not_probed(self, probes):
        # UER order A, B; B's critical time ties A's, so it bisects
        # behind A: one probe settles the head.
        tasks = [_task("A", 1.0, 30.0), _task("B", 1.0, 20.0)]
        decision, n = _eua_all_ways(tasks, _jobs(tasks), probes)
        assert decision.job.task.name == "A"
        assert n == 1

    def test_later_earlier_job_becomes_head(self, probes):
        # UER order A (crit 1.0), B (2.0), C (0.5).  B alone cannot move
        # the head, but C comes after it and does: the walk must reach C.
        tasks = [_task("A", 1.0, 30.0), _task("B", 2.0, 20.0), _task("C", 0.5, 10.0)]
        decision, n = _eua_all_ways(tasks, _jobs(tasks), probes)
        assert decision.job.task.name == "C"
        assert n == 3

    def test_stops_against_head_not_tail(self, probes):
        # UER order A (1.0), B (0.5), C (0.8): after B σ is [B, A].  C's
        # critical time is past the head B's but before the tail A's,
        # so C cannot change the head and is never probed.
        tasks = [_task("A", 1.0, 40.0), _task("B", 0.5, 30.0), _task("C", 0.8, 20.0)]
        decision, n = _eua_all_ways(tasks, _jobs(tasks), probes)
        assert decision.job.task.name == "B"
        assert n == 2

    @pytest.mark.parametrize("strict,head,n", [(True, "A", 2), (False, "C", 3)])
    def test_strict_insertion_break(self, probes, strict, head, n):
        # UER order A (crit 1.0, 0.5 s), B (crit 0.7, 0.6 s), C (crit 0.3,
        # 0.1 s).  B fits alone but pushes A past its termination, so it
        # is rejected: the literal reading stops there with A at the
        # head; the default goes on to C, which becomes the head.
        tasks = [_task("A", 1.0, 40.0, mean=500.0), _task("B", 0.7, 30.0, mean=600.0),
                 _task("C", 0.3, 2.0)]

        def make():
            return EUAStar(strict_insertion_break=strict)

        decision, probed = _eua_all_ways(tasks, _jobs(tasks), probes, make=make)
        assert decision.job.task.name == head
        assert probed == n

    def test_nonpositive_uer_tail(self, probes):
        # Z's zero utility puts it last with the earliest critical time,
        # so the head never settles: the walk ends at Z's non-positive
        # UER, unprobed, exactly as the full walk does.
        tasks = [_task("A", 1.0, 30.0), _task("B", 2.0, 20.0), _zero_tail_task("Z")]
        decision, n = _eua_all_ways(tasks, _jobs(tasks), probes)
        assert decision.job.task.name == "A"
        assert n == 2
        assert tasks[2].critical_time < tasks[0].critical_time

    def test_budgeted_candidates_settle_on_their_own_list(self, probes):
        # Budget 1.0 with 0.7 spent at t = 0: BudgetedEUA keeps the jobs
        # whose UER is at least 0.7 of the best.  D (UER 0.1 of the best,
        # earliest critical time) is filtered out, so it must not hold
        # the walk open: A settles the head at once.
        tasks = [_task("A", 0.5, 100.0), _task("B", 1.0, 90.0), _task("C", 2.0, 80.0),
                 _task("D", 0.2, 10.0)]

        def make():
            return BudgetedEUA(budget=1.0, mission_horizon=1.0)

        decision, n = _eua_all_ways(tasks, _jobs(tasks), probes, make=make,
                                    energy_consumed=0.7)
        assert decision.job.task.name == "A"
        assert n == 1

    def test_dasa_settles_too(self, probes):
        tasks = [_task("A", 1.0, 30.0), _task("B", 2.0, 20.0), _task("C", 1.5, 10.0)]
        plain = _decide(DASA, tasks, _jobs(tasks))
        n = len(probes)
        observed = _decide(DASA, tasks, _jobs(tasks), observed=True)
        assert _key(plain) == _key(observed)
        assert plain.job.task.name == "A"
        assert (n, len(probes) - n) == (1, 3)


# ----------------------------------------------------------------------
# Random ready sets
# ----------------------------------------------------------------------
@st.composite
def ready_sets(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    tasks, jobs = [], []
    now = 2.0  # no earlier than any termination, so releases stay >= 0
    for i in range(n):
        crit = draw(st.floats(min_value=0.05, max_value=1.5))
        umax = draw(st.floats(min_value=1.0, max_value=50.0))
        mean = draw(st.floats(min_value=5.0, max_value=400.0))
        shape = draw(st.sampled_from(("step", "linear", "zero-tail")))
        if shape == "step":
            task = _task(f"T{i}", crit, umax, mean)
        elif shape == "linear":
            task = Task(f"T{i}", LinearTUF(umax, crit), DeterministicDemand(mean),
                        UAMSpec(1, crit), nu=0.5)
        else:
            task = _zero_tail_task(f"T{i}", mean)
        tasks.append(task)
        window = task.tuf.termination
        for k in range(draw(st.integers(min_value=1, max_value=2))):
            release = now - draw(st.floats(min_value=0.0, max_value=window))
            job = Job(task, k, release, mean)
            job.executed = draw(st.floats(min_value=0.0, max_value=0.9)) * mean
            jobs.append(job)
    return tasks, jobs, now


@settings(max_examples=150)
@given(ready_sets(), st.booleans())
def test_unobserved_eua_matches_full_walk_and_reference(scenario, strict):
    tasks, jobs, now = scenario

    def make():
        return EUAStar(strict_insertion_break=strict)

    with _counted_probes() as calls:
        plain = _decide(make, tasks, jobs, time=now)
    n = len(calls)
    observed = _decide(make, tasks, jobs, observed=True, time=now)
    reference = _decide(make, tasks, jobs, incremental=False, time=now)
    assert _key(plain) == _key(observed) == _key(reference)

    sched = _ready(make(), tasks)
    _, _, ranked = sched._rank(_view(tasks, jobs, time=now), now, SCALE.f_max)
    assert n == _settle_count(ranked, now, strict)


@settings(max_examples=60)
@given(ready_sets())
def test_unobserved_dasa_matches_full_walk(scenario):
    tasks, jobs, now = scenario
    plain = _decide(DASA, tasks, jobs, time=now)
    observed = _decide(DASA, tasks, jobs, observed=True, time=now)
    assert _key(plain) == _key(observed)


# ----------------------------------------------------------------------
# Whole runs: an observer changes nothing the schedule shows
# ----------------------------------------------------------------------
@pytest.mark.parametrize("make", [DASA, EUAStar], ids=["DASA", "EUA*"])
def test_burst_overload_run_same_with_and_without_observer(make):
    rng = np.random.default_rng(11)
    taskset = synthesize_taskset(1.6, rng, arrival_mode="burst", burst_override=8)
    trace = materialize(taskset, 1.0, rng)
    bare = simulate(trace, make(), record_trace=True)
    seen = simulate(trace, make(), record_trace=True, observer=Observer())
    assert seen.trace == bare.trace
    assert [(j.key, j.status) for j in seen.jobs] == [(j.key, j.status) for j in bare.jobs]
    assert seen.energy == bare.energy
    assert any(j.status.name == "ABORTED" for j in bare.jobs)
