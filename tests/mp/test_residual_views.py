"""Differential tests for global dispatch's per-core residual views.

:class:`repro.sim.engine.ResidualPlan` computes the run-static part of
the per-core split once (worst-fit order, ``C_i/D_i`` weights,
sub-task-sets) and only re-pins each event.  The oracle below is the
split computed from scratch at every event — the definition the plan
must reproduce exactly: same members per core, same sub-task-set
order, same residual ready lists.  It also stands in for the plan in a
runtime run, where a reallocation moves the sort keys mid-run.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import EUAStar
from repro.experiments import synthesize_taskset
from repro.experiments.adaptive import drifting_trace
from repro.obs import EventKind, Observer
from repro.runtime import AdaptiveRuntime, RuntimeConfig
from repro.sim import Platform, TaskSet
from repro.sim.engine import Engine, ResidualPlan
from repro.sim.job import Job


def oracle_partition(taskset, assigned):
    """Per-core member indices, rebuilt from the live task parameters."""
    m = len(assigned)
    pinned = {}
    for k in range(m):
        pick = assigned[k]
        if pick is not None:
            pinned.setdefault(id(pick[0].task), []).append(k)
    loads = [0.0] * m
    members = [[] for _ in range(m)]
    rest = []
    for i, task in enumerate(taskset):
        cores_of_task = pinned.get(id(task))
        if cores_of_task is None:
            rest.append(i)
            continue
        for k in cores_of_task:
            members[k].append(i)
            loads[k] += task.min_feasible_frequency
    rest.sort(
        key=lambda i: (
            -taskset[i].min_feasible_frequency,
            -(taskset[i].tuf.max_utility / taskset[i].allocation),
            i,
        )
    )
    for i in rest:
        k = min(range(m), key=lambda q: (loads[q], q))
        members[k].append(i)
        loads[k] += taskset[i].min_feasible_frequency
    return members


def oracle_views(taskset, ready, assigned):
    """Each busy core's (sub-task-set, residual ready list); None if idle."""
    members = oracle_partition(taskset, assigned)
    out = []
    for k, pick in enumerate(assigned):
        if pick is None:
            out.append(None)
            continue
        subset = sorted(members[k])
        subset_ids = {id(taskset[i]) for i in subset}
        elsewhere = {
            id(p[0]) for q, p in enumerate(assigned) if p is not None and q != k
        }
        out.append((
            TaskSet(taskset[i] for i in subset),
            [j for j in ready if id(j.task) in subset_ids and id(j) not in elsewhere],
        ))
    return out


def _assert_same_views(plan, taskset, ready, assigned):
    assert plan.partition(assigned) == oracle_partition(taskset, assigned)
    got = plan.views(ready, assigned)
    want = oracle_views(taskset, ready, assigned)
    assert len(got) == len(want)
    for mine, ref in zip(got, want):
        if ref is None:
            assert mine is None
            continue
        assert [t.name for t in mine[0]] == [t.name for t in ref[0]]
        assert all(a is b for a, b in zip(mine[0], ref[0]))
        assert [id(j) for j in mine[1]] == [id(j) for j in ref[1]]


def _jobs(taskset, task_indices):
    return [
        Job(taskset[i], n, 0.0, taskset[i].allocation)
        for n, i in enumerate(task_indices)
    ]


@st.composite
def _events(draw):
    """A task set, m, and a few decision points over one plan: each a
    ready list (repeated tasks allowed) and an assignment that may
    leave cores idle and may dispatch two jobs of one task."""
    load = draw(st.floats(0.4, 2.0))
    seed = draw(st.integers(0, 2**16))
    m = draw(st.sampled_from((2, 3, 4)))
    taskset = synthesize_taskset(load, np.random.default_rng(seed))
    n = len(taskset)
    events = []
    for _ in range(draw(st.integers(1, 4))):
        ready = _jobs(taskset, draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=10)))
        slots = draw(st.lists(
            st.one_of(st.none(), st.integers(0, len(ready) - 1)), min_size=m, max_size=m
        ))
        taken = set()
        assigned = []
        for slot in slots:
            if slot is None or slot in taken:
                assigned.append(None)
            else:
                taken.add(slot)
                assigned.append((ready[slot], 1000.0))
        events.append((ready, assigned))
    return taskset, events


@settings(max_examples=60, deadline=None)
@given(_events())
def test_plan_matches_per_event_oracle(case):
    taskset, events = case
    plan = ResidualPlan(taskset)
    for ready, assigned in events:
        _assert_same_views(plan, taskset, ready, assigned)


@pytest.mark.parametrize("m", [2, 3, 4])
def test_task_pinned_on_two_cores_and_idle_cores(m):
    """Two pending jobs of one task dispatched at once pin that task on
    both cores; the remaining cores idle but still absorb worst-fit
    shares."""
    taskset = synthesize_taskset(1.2, np.random.default_rng(7))
    ready = _jobs(taskset, [3, 3, 0, 5, 3, 9])
    assigned = [(ready[0], 1000.0), (ready[1], 1000.0)] + [None] * (m - 2)
    plan = ResidualPlan(taskset)
    members = plan.partition(assigned)
    assert 3 in members[0] and 3 in members[1]
    if m > 2:
        assert any(members[k] for k in range(2, m))
    _assert_same_views(plan, taskset, ready, assigned)
    # Each core keeps its own dispatch and drops the other's.
    views = plan.views(ready, assigned)
    assert ready[0] in views[0][1] and ready[1] not in views[0][1]
    assert ready[1] in views[1][1] and ready[0] not in views[1][1]


def _freq_decisions(monkeypatch=None):
    """FREQ_DECISION stream of an m = 2 run whose runtime reallocates."""
    if monkeypatch is not None:
        monkeypatch.setattr(
            ResidualPlan, "views",
            lambda plan, ready, assigned: oracle_views(plan.tasks, ready, assigned),
        )
    trace = drifting_trace(seed=11, load=1.6, horizon=1.0)
    obs = Observer(events=True, metrics=False)
    rt = AdaptiveRuntime(RuntimeConfig())
    platform = Platform()
    Engine(trace, EUAStar(), [platform.processor(), platform.processor()],
           observer=obs, runtime=rt).run()
    assert rt.summary()["reallocations"] > 0
    return [(e.time, e.job, e.fields) for e in obs.events.of_kind(EventKind.FREQ_DECISION)]


def test_reallocation_drops_the_plan(monkeypatch):
    """A reallocation moves c_i and with it both worst-fit sort keys:
    the plan must not outlive it.  The oracle recomputes the split from
    the live tasks at every event, so the two streams agree only if the
    engine rebuilds its plan after each reallocation."""
    planned = _freq_decisions()
    assert planned
    assert {e[2]["core"] for e in planned} == {0, 1}
    assert planned == _freq_decisions(monkeypatch)
