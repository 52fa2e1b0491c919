"""Property tests: the structured event log agrees with the ground truth.

The engine's :class:`~repro.sim.trace.Trace` is the audited execution
timeline (the validator and the conservation tests run on it) and the
obs :class:`~repro.obs.EventLog` is the event record of the same run,
so on random workloads the facts they share must agree — and attaching
an observer must not change the schedule itself.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arrivals import UAMSpec
from repro.core import EUAStar
from repro.cpu import EnergyModel, FrequencyScale, Processor
from repro.demand import NormalDemand
from repro.obs import EventKind, Observer
from repro.sched import DASA, EDFStatic
from repro.sim import Engine, Task, TaskSet, materialize
from repro.tuf import StepTUF


def _make_scheduler(name):
    return {"EUA*": EUAStar, "DASA": DASA, "EDF": EDFStatic}[name]()


@st.composite
def scenarios(draw):
    n_tasks = draw(st.integers(min_value=1, max_value=4))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    load = draw(st.floats(min_value=0.3, max_value=1.6))
    scheduler = draw(st.sampled_from(["EUA*", "DASA", "EDF"]))
    tasks = []
    for i in range(n_tasks):
        window = draw(st.floats(min_value=0.08, max_value=0.6))
        umax = draw(st.floats(min_value=1.0, max_value=50.0))
        mean = window * 80.0
        tasks.append(
            Task(f"T{i}", StepTUF(umax, window), NormalDemand(mean, mean * 1e-6),
                 UAMSpec(1, window))
        )
    taskset = TaskSet(tasks).scaled_to_load(load, 1000.0)
    return taskset, seed, scheduler


def _run(taskset, seed, scheduler_name, observer):
    rng = np.random.default_rng(seed)
    workload = materialize(taskset, 1.5, rng)
    cpu = Processor(FrequencyScale.powernow_k6(), EnergyModel.e1())
    engine = Engine(workload, _make_scheduler(scheduler_name), cpu,
                    record_trace=True, observer=observer)
    return workload, engine.run()


@given(scenarios())
@settings(max_examples=25, deadline=None)
def test_event_log_time_ordered_and_trace_consistent(scenario):
    taskset, seed, scheduler_name = scenario
    obs = Observer(events=True, metrics=True)
    workload, result = _run(taskset, seed, scheduler_name, obs)
    trace = result.trace
    log = obs.events

    # 1. The log is chronological (sequence numbers break ties).
    assert log.is_time_ordered()

    # 2. Every released job produced a RELEASE event.
    assert len(log.of_kind(EventKind.RELEASE)) == len(workload)

    # 3. Dispatches only name jobs that actually executed.
    executed = {s.job_key for s in trace.busy_segments()}
    assert {e.job for e in log.of_kind(EventKind.DISPATCH)} <= executed | set()

    # 4. Residency counters tile the same timeline as Trace.segments.
    residency = obs.metrics.family("cpu_residency_seconds")
    busy = sum(c.value for (name, labels), c in residency.items()
               if ("state", "busy") in labels)
    idle = sum(c.value for (name, labels), c in residency.items()
               if ("state", "idle") in labels)
    assert busy == pytest.approx(trace.busy_time(), rel=1e-9, abs=1e-9)
    assert idle == pytest.approx(trace.idle_time(), rel=1e-9, abs=1e-9)

    # 5. Outcome counters agree with the paper metrics.
    m = result.metrics
    assert obs.metrics.counter_value("jobs_released", task=None) == 0.0  # labelled only
    released = sum(c.value for c in obs.metrics.family("jobs_released").values())
    completed = sum(c.value for c in obs.metrics.family("jobs_completed").values())
    assert released == m.released
    assert completed == m.completed


@given(scenarios())
@settings(max_examples=10, deadline=None)
def test_observer_does_not_perturb_the_schedule(scenario):
    """Zero-cost also means zero *behavioural* effect: the observed run
    and the bare run produce identical outcomes."""
    taskset, seed, scheduler_name = scenario
    _, bare = _run(taskset, seed, scheduler_name, observer=None)
    _, seen = _run(taskset, seed, scheduler_name,
                   observer=Observer(events=True, metrics=True, spans=True))
    assert seen.metrics.normalized_utility == bare.metrics.normalized_utility
    assert seen.energy == bare.energy
    assert seen.trace == bare.trace
