"""Unit tests for the invariant checker (`repro.check.invariants`).

Each test plants one specific defect — a corrupt decision, a
UAM-violating release stream, doctored accounting — and asserts the
checker (or, for a doctored finished result, the post-hoc audit)
raises or collects a violation with the right catalogue key.
"""

import numpy as np
import pytest

from repro.check import InvariantChecker, InvariantViolation, audit
from repro.core.eua import EUAStar
from repro.core.offline import TaskParams
from repro.demand import DeterministicDemand
from repro.obs import Observer
from repro.sched import make_scheduler
from repro.sim import Platform, materialize, simulate
from repro.sim.job import Job, JobStatus
from repro.sim.scheduler import Decision, Scheduler
from repro.sim.task import Task, TaskSet
from repro.sim.workload import JobSpec, WorkloadTrace
from repro.arrivals import UAMSpec
from repro.tuf import StepTUF


def _simple_trace(n_jobs: int = 3, window: float = 0.1) -> WorkloadTrace:
    """One periodic task, well under load, explicit job specs."""
    task = Task("T0", StepTUF(10.0, window), DeterministicDemand(20.0), UAMSpec(1, window))
    jobs = [JobSpec(task, k, k * window, 20.0) for k in range(n_jobs)]
    return WorkloadTrace(TaskSet([task]), (n_jobs + 1) * window, jobs)


class _Corrupting(Scheduler):
    """Delegates to EDF but corrupts the returned decision."""

    abort_expired = True

    def __init__(self, corrupt):
        self.name = "corrupt"
        self._inner = make_scheduler("EDF")
        self._corrupt = corrupt

    def setup(self, taskset, scale, energy_model):
        self._inner.setup(taskset, scale, energy_model)

    def decide(self, view):
        return self._corrupt(self._inner.decide(view), view)


def _run_corrupted(corrupt, mode="raise"):
    checker = InvariantChecker(mode=mode)
    simulate(_simple_trace(), _Corrupting(corrupt), Platform(), checker=checker)
    return checker


# ----------------------------------------------------------------------
def test_clean_run_has_no_violations():
    checker = _run_corrupted(lambda d, v: d)
    assert checker.ok
    assert checker.violations == []


def test_off_ladder_frequency_raises():
    def corrupt(decision, view):
        if decision.job is None:
            return decision
        return Decision(job=decision.job, frequency=123.456, aborts=decision.aborts)

    with pytest.raises(InvariantViolation) as exc:
        _run_corrupted(corrupt)
    assert exc.value.invariant == "frequency_in_scale"


def test_dispatching_non_ready_job_raises():
    def corrupt(decision, view):
        if decision.job is None:
            return decision
        ghost = Job(decision.job.task, 999, view.time, 5.0)
        return Decision(job=ghost, frequency=decision.frequency, aborts=decision.aborts)

    with pytest.raises(InvariantViolation) as exc:
        _run_corrupted(corrupt)
    assert exc.value.invariant == "dispatch_ready"


def test_aborting_the_dispatched_job_raises():
    def corrupt(decision, view):
        if decision.job is None:
            return decision
        return Decision(
            job=decision.job, frequency=decision.frequency, aborts=(decision.job,)
        )

    with pytest.raises(InvariantViolation) as exc:
        _run_corrupted(corrupt)
    assert exc.value.invariant == "abort_valid"


class _SwapHead(EUAStar):
    """Dispatches some ready job other than the σ head when one exists."""

    def decide(self, view):
        decision = super().decide(view)
        others = [
            j for j in view.ready
            if j is not decision.job and not j.is_finished and j not in decision.aborts
        ]
        if decision.job is not None and others:
            return Decision(job=others[0], frequency=decision.frequency,
                            aborts=decision.aborts)
        return decision


def _two_task_trace() -> WorkloadTrace:
    t0 = Task("T0", StepTUF(10.0, 0.2), DeterministicDemand(30.0), UAMSpec(1, 0.2))
    t1 = Task("T1", StepTUF(5.0, 0.3), DeterministicDemand(30.0), UAMSpec(1, 0.3))
    jobs = [JobSpec(t0, 0, 0.0, 30.0), JobSpec(t1, 0, 0.0, 30.0)]
    return WorkloadTrace(TaskSet([t0, t1]), 0.4, jobs)


def test_collect_mode_completes_and_accumulates():
    checker = InvariantChecker(mode="collect")
    result = simulate(_two_task_trace(), _SwapHead(name="EUA*-swap"), Platform(),
                      checker=checker)
    assert not checker.ok
    assert "sigma_head" in {v.invariant for v in checker.violations}
    assert len(result.jobs) == 2  # the run completed despite violations


def test_violations_emit_observer_events():
    trace = _simple_trace()
    task = next(iter(trace.taskset))
    # Two releases inside one <1, P> window: an envelope violation.
    bad = WorkloadTrace(
        trace.taskset,
        trace.horizon,
        [JobSpec(task, 0, 0.0, 20.0), JobSpec(task, 1, 0.03, 20.0)],
    )
    checker = InvariantChecker(mode="collect")
    observer = Observer(events=True, metrics=True)
    simulate(bad, make_scheduler("EDF"), Platform(), observer=observer, checker=checker)
    assert [v.invariant for v in checker.violations] == ["uam_envelope"]
    emitted = [e for e in observer.events if e.kind.value == "invariant_violation"]
    assert len(emitted) == 1
    assert emitted[0].fields["invariant"] == "uam_envelope"
    assert emitted[0].source == "check"


def test_uam_envelope_raise_mode():
    trace = _simple_trace()
    task = next(iter(trace.taskset))
    bad = WorkloadTrace(
        trace.taskset,
        trace.horizon,
        [JobSpec(task, 0, 0.0, 20.0), JobSpec(task, 1, 0.05, 20.0)],
    )
    with pytest.raises(InvariantViolation) as exc:
        simulate(bad, make_scheduler("EDF"), Platform(),
                 checker=InvariantChecker(mode="raise"))
    assert exc.value.invariant == "uam_envelope"


def test_trailing_edge_release_is_compliant():
    """An arrival exactly one window after the last opens a new window."""
    trace = _simple_trace()
    task = next(iter(trace.taskset))
    window = task.uam.window
    ok = WorkloadTrace(
        trace.taskset,
        trace.horizon,
        [JobSpec(task, 0, 0.0, 20.0), JobSpec(task, 1, window, 20.0)],
    )
    checker = InvariantChecker(mode="raise")
    simulate(ok, make_scheduler("EDF"), Platform(), checker=checker)
    assert checker.ok


# ----------------------------------------------------------------------
class _CorruptParams(EUAStar):
    """EUA* whose offlineComputing output is silently inflated."""

    def setup(self, taskset, scale, energy_model):
        super().setup(taskset, scale, energy_model)
        self._params = {
            name: TaskParams(p.allocation * 1.5, p.critical_time, p.optimal_frequency)
            for name, p in self._params.items()
        }


def test_offline_params_cross_check():
    checker = InvariantChecker(mode="collect")
    simulate(_simple_trace(), _CorruptParams(name="EUA*-corrupt"), Platform(),
             checker=checker)
    assert "offline_params" in {v.invariant for v in checker.violations}


def test_eua_star_runs_clean_under_checker():
    checker = InvariantChecker(mode="raise")
    simulate(_simple_trace(), make_scheduler("EUA*"), Platform(), checker=checker)
    assert checker.ok


# ----------------------------------------------------------------------
def _audit_keys(result):
    platform = Platform()
    return {v.invariant for v in audit(result, platform.energy_model, platform.idle_power)}


def test_direct_utility_accrual_check():
    result = simulate(_simple_trace(), make_scheduler("EDF"), Platform(), record_trace=True)
    job = next(j for j in result.jobs if j.status is JobStatus.COMPLETED)
    job.accrued_utility = 42.0  # step TUF max is 10
    platform = Platform()
    found = audit(result, platform.energy_model, platform.idle_power)
    assert {v.job for v in found if v.invariant == "utility_accrual"} == {job.key}
    # The doctored job also breaks the metrics re-derivation, nothing else.
    assert {v.invariant for v in found} == {"utility_accrual", "metrics_consistency"}


def test_energy_conservation_flags_doctored_stats():
    trace = _simple_trace()
    checker = InvariantChecker(mode="collect")
    result = simulate(trace, make_scheduler("EUA*"), Platform(), checker=checker)
    assert checker.ok
    result.processor_stats.energy += 1.0
    assert "energy_conservation" in _audit_keys(result)


def test_metrics_consistency_flags_doctored_utility():
    trace = _simple_trace()
    checker = InvariantChecker(mode="collect")
    result = simulate(trace, make_scheduler("EUA*"), Platform(), checker=checker)
    result.jobs[0].accrued_utility += 5.0
    assert "metrics_consistency" in _audit_keys(result)


# ----------------------------------------------------------------------
def test_edf_equivalence_active_on_periodic_step_underload():
    """The Theorem-2 invariant arms itself only under its preconditions."""
    trace = _simple_trace()
    checker = InvariantChecker(mode="raise")
    simulate(trace, make_scheduler("EUA*-demand"), Platform(), checker=checker)
    assert checker._edf_equiv_active
    assert checker.ok

    checker = InvariantChecker(mode="raise")
    simulate(trace, make_scheduler("EUA*"), Platform(), checker=checker)
    assert not checker._edf_equiv_active  # lookahead is statistical only


def test_checker_is_rebindable():
    """bind() resets state so one checker audits one run at a time."""
    trace = _simple_trace()
    checker = InvariantChecker(mode="collect")
    for _ in range(2):
        simulate(trace, make_scheduler("EUA*"), Platform(), checker=checker)
        assert checker.ok


def test_randomized_workload_runs_clean():
    from repro.experiments.workload import synthesize_taskset

    rng = np.random.default_rng(17)
    taskset = synthesize_taskset(1.2, rng, arrival_mode="burst")
    trace = materialize(taskset, 0.5, np.random.default_rng(18))
    for label in ("EUA*", "DASA", "EDF"):
        checker = InvariantChecker(mode="raise")
        simulate(trace, make_scheduler(label), Platform(), checker=checker)
        assert checker.ok
