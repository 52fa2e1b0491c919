"""Tests for SchedulerView (repro.sim.scheduler)."""

import pytest

from repro.arrivals import BurstUAMArrivals, UAMSpec
from repro.cpu import EnergyModel, FrequencyScale
from repro.demand import DeterministicDemand
from repro.sim import Job, Task, TaskSet
from repro.sim.scheduler import SchedulerView, SchedulingEvent
from repro.tuf import StepTUF


def _task(name="T", window=1.0, mean=10.0, a=1):
    spec = UAMSpec(a, window)
    return Task(
        name,
        StepTUF(5.0, window),
        DeterministicDemand(mean),
        spec,
        arrivals=None if a == 1 else BurstUAMArrivals(spec),
    )


def _view(tasks, jobs, time=0.0, arrivals=None):
    return SchedulerView(
        time=time,
        ready=jobs,
        taskset=TaskSet(tasks),
        scale=FrequencyScale.powernow_k6(),
        energy_model=EnergyModel.e1(),
        event=SchedulingEvent.ARRIVAL,
        arrivals_in_window=arrivals or {},
    )


class TestPendingQueries:
    def test_pending_of_sorted_by_critical_time(self):
        task = _task(window=1.0)
        j_late = Job(task, 1, 0.5, 10.0)
        j_early = Job(task, 0, 0.0, 10.0)
        view = _view([task], [j_late, j_early])
        assert view.pending_of(task) == [j_early, j_late]

    def test_head_job(self):
        task = _task()
        j0, j1 = Job(task, 0, 0.0, 10.0), Job(task, 1, 0.9, 10.0)
        view = _view([task], [j1, j0])
        assert view.head_job_of(task) is j0

    def test_head_job_none(self):
        task = _task()
        assert _view([task], []).head_job_of(task) is None

    def test_pending_filters_other_tasks(self):
        a, b = _task("A"), _task("B")
        ja, jb = Job(a, 0, 0.0, 10.0), Job(b, 0, 0.0, 10.0)
        view = _view([a, b], [ja, jb])
        assert view.pending_of(a) == [ja]


class TestArrivalTracking:
    def test_counts(self):
        task = _task(a=3)
        view = _view([task], [], time=1.0, arrivals={"T": [0.5, 0.9]})
        assert view.arrivals_in_window(task) == 2
        assert view.recent_arrival_times(task) == [0.5, 0.9]

    def test_next_admissible_under_budget(self):
        task = _task(a=3)
        view = _view([task], [], time=1.0, arrivals={"T": [0.5]})
        assert view.next_admissible_arrival(task) == 1.0  # can arrive now

    def test_next_admissible_budget_exhausted(self):
        task = _task(a=2, window=1.0)
        view = _view([task], [], time=1.0, arrivals={"T": [0.4, 0.8]})
        assert view.next_admissible_arrival(task) == pytest.approx(1.4)

    def test_unknown_task_zero_arrivals(self):
        task = _task()
        view = _view([task], [])
        assert view.arrivals_in_window(task) == 0


class TestRemainingWindowCycles:
    def test_periodic_pending_job(self):
        task = _task(a=1, mean=10.0)
        job = Job(task, 0, 0.0, 10.0)
        view = _view([task], [job], arrivals={"T": [0.0]})
        # One pending job, window arrival seen: just its budget.
        assert view.remaining_window_cycles(task) == pytest.approx(task.allocation)

    def test_periodic_idle_no_hedge(self):
        task = _task(a=1)
        view = _view([task], [], time=0.5, arrivals={"T": [0.0]})
        # The window's single arrival was seen: nothing can arrive.
        assert view.remaining_window_cycles(task) == 0.0

    def test_bursty_hedges_unseen_arrivals(self):
        task = _task(a=3, mean=10.0)
        job = Job(task, 0, 0.0, 10.0)
        view = _view([task], [job], arrivals={"T": [0.0]})
        # 1 pending + 2 unseen potential arrivals.
        c = task.allocation
        assert view.remaining_window_cycles(task) == pytest.approx(3 * c)

    def test_capped_at_window_total(self):
        task = _task(a=2, mean=10.0)
        jobs = [Job(task, k, 0.0, 10.0) for k in range(4)]  # leftovers
        view = _view([task], jobs, arrivals={"T": []})
        assert view.remaining_window_cycles(task) == pytest.approx(
            2 * task.allocation
        )

    def test_partial_execution_reduces_head(self):
        task = _task(a=1, mean=10.0)
        job = Job(task, 0, 0.0, 10.0)
        job.executed = 4.0
        view = _view([task], [job], arrivals={"T": [0.0]})
        assert view.remaining_window_cycles(task) == pytest.approx(
            task.allocation - 4.0
        )


class TestEarliestCriticalTime:
    def test_pending_head(self):
        task = _task(window=1.0)
        job = Job(task, 0, 0.25, 10.0)
        view = _view([task], [job], time=0.5)
        assert view.earliest_critical_time(task) == pytest.approx(1.25)

    def test_idle_assumes_fresh_window(self):
        task = _task(window=1.0)
        view = _view([task], [], time=0.5)
        assert view.earliest_critical_time(task) == pytest.approx(1.5)


class TestWithout:
    def test_removes_jobs(self):
        task = _task()
        j0, j1 = Job(task, 0, 0.0, 10.0), Job(task, 1, 0.5, 10.0)
        view = _view([task], [j0, j1])
        filtered = view.without([j0])
        assert filtered.ready == [j1]
        assert view.ready == [j0, j1]  # original untouched

    def test_preserves_metadata(self):
        task = _task()
        view = _view([task], [], time=2.0, arrivals={"T": [1.5]})
        filtered = view.without([])
        assert filtered.time == 2.0
        assert filtered.arrivals_in_window(task) == 1


class TestReadySnapshotContract:
    """A retained view must stay membership-stable across the engine's
    abort pass (the view snapshots the live ready list at construction;
    see ``repro.sim.engine.build_view``)."""

    def test_retained_view_stable_across_abort_pass(self):
        from repro.cpu import Processor
        from repro.sched import Decision, Scheduler
        from repro.sim import Engine, JobStatus, WorkloadTrace
        from repro.sim.workload import JobSpec

        class AbortTail(Scheduler):
            """Runs the earliest-critical-time job, aborts every other
            pending job — and retains each decision's view."""

            name = "abort-tail"

            def __init__(self):
                self.snapshots = []

            def decide(self, view):
                order = sorted(
                    view.ready, key=lambda j: (j.critical_time, j.index)
                )
                head = order[0] if order else None
                aborts = tuple(order[1:])
                self.snapshots.append((list(view.ready), aborts, view))
                return Decision(
                    job=head, frequency=view.scale.f_max, aborts=aborts
                )

        task = _task(window=1.0, mean=100.0)
        trace = WorkloadTrace(
            TaskSet([task]),
            2.0,
            [JobSpec(task, i, 0.0, 100.0) for i in range(3)],
        )
        scheduler = AbortTail()
        cpu = Processor(FrequencyScale((1000.0,)), EnergyModel.e1())
        result = Engine(trace, scheduler, cpu).run()

        aborted = [j for j in result.jobs if j.status is JobStatus.ABORTED]
        assert aborted, "scenario must exercise the abort pass"
        saw_abort_pass = False
        for members, aborts, view in scheduler.snapshots:
            # The engine removed `aborts` from its live list right after
            # decide() returned; the retained view must still show the
            # decision-time membership, aborted jobs included.
            assert view.ready == members
            for job in aborts:
                assert job in view.ready
                saw_abort_pass = True
        assert saw_abort_pass

    def test_view_does_not_alias_caller_list(self):
        task = _task()
        jobs = [Job(task, 0, 0.0, 10.0), Job(task, 1, 0.5, 10.0)]
        view = _view([task], jobs)
        jobs.pop()
        assert len(view.ready) == 2
