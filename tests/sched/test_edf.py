"""Tests for EDF policies (repro.sched.edf)."""


from repro.arrivals import UAMSpec
from repro.cpu import EnergyModel, FrequencyScale, Processor
from repro.demand import DeterministicDemand
from repro.sched import EDFStatic, edf_pick
from repro.sim import Job, Task, TaskSet
from repro.sim.engine import JobLifecycle
from repro.sim.scheduler import SchedulerView, SchedulingEvent, _pending_key
from repro.tuf import StepTUF


def _task(name="T", window=1.0):
    return Task(name, StepTUF(5.0, window), DeterministicDemand(10.0), UAMSpec(1, window))


def _view(tasks, jobs, time=0.0):
    return SchedulerView(
        time=time,
        ready=jobs,
        taskset=TaskSet(tasks),
        scale=FrequencyScale.powernow_k6(),
        energy_model=EnergyModel.e1(),
        event=SchedulingEvent.ARRIVAL,
        arrivals_in_window={},
    )


class TestEdfPick:
    def test_none_when_empty(self):
        assert edf_pick(_view([_task()], [])) is None

    def test_earliest_critical_time(self):
        a, b = _task("A", 1.0), _task("B", 0.5)
        ja, jb = Job(a, 0, 0.0, 10.0), Job(b, 0, 0.0, 10.0)
        assert edf_pick(_view([a, b], [ja, jb])) is jb

    def test_tie_broken_by_release(self):
        a = _task("A", 1.0)
        j0, j1 = Job(a, 0, 0.0, 10.0), Job(a, 1, 0.0, 10.0)
        # identical release and critical time: index breaks the tie
        assert edf_pick(_view([a], [j1, j0])) is j0

    def test_stale_job_sorts_first(self):
        # The -NA domino mechanism: an expired job keeps its old (early)
        # critical time and keeps winning the pick.
        a = _task("A", 0.5)
        stale = Job(a, 0, 0.0, 10.0)
        fresh = Job(a, 1, 1.0, 10.0)
        assert edf_pick(_view([a], [fresh, stale], time=2.0)) is stale


def _lifecycle(tasks, abort_expired=True):
    return JobLifecycle(TaskSet(tasks), EDFStatic(abort_expired=abort_expired),
                        [Processor(FrequencyScale.powernow_k6(), EnergyModel.e1())])


def _heads_view(lc, t):
    """``lc``'s view at ``t``, which ``edf_pick`` answers from the heads."""
    view = lc.view(t, SchedulingEvent.ARRIVAL)
    assert len(view._pending) < len(view.ready)
    return view


class TestEdfPickFromHeads:
    """Lifecycle views with more ready jobs than tasks: the pick reads
    the per-task heads and must equal the scan over ``ready``."""

    def test_cross_task_tie_goes_to_ready_order(self):
        a, b = _task("A"), _task("B")
        lc = _lifecycle([a, b])
        old = Job(a, 9, 0.2, 10.0)
        a0, b0, a1 = Job(a, 0, 0.0, 10.0), Job(b, 0, 0.0, 10.0), Job(a, 1, 0.5, 10.0)
        for job in (old, b0, a0, a1):
            lc.admit(job, 0.5)
        lc.drop(old, 0.5)
        view = _heads_view(lc, 0.5)
        # a0 and b0 tie on (critical time, release, index); A's group
        # comes first in the index, b0 first in ``ready``.
        assert list(view._pending) == [id(a), id(b)]
        assert view.ready == [b0, a0, a1]
        assert _pending_key(a0) == _pending_key(b0)
        assert edf_pick(view) is b0

    def test_expired_job_kept_by_no_abort_policy(self):
        a, b = _task("A", 0.5), _task("B", 1.0)
        lc = _lifecycle([a, b], abort_expired=False)
        stale, fresh = Job(a, 0, 0.0, 10.0), Job(a, 1, 1.0, 10.0)
        other = Job(b, 0, 1.0, 10.0)
        for job in (fresh, other, stale):
            lc.admit(job, 1.0)
        assert lc.expire_overdue(2.0) == []
        view = _heads_view(lc, 2.0)
        assert edf_pick(view) is stale is min(view.ready, key=_pending_key)

    def test_groups_left_empty_after_completions(self):
        a, b, c = _task("A", 0.5), _task("B", 1.0), _task("C", 2.0)
        lc = _lifecycle([a, b, c])
        ja = Job(a, 0, 0.0, 10.0)
        jb = Job(b, 0, 0.0, 10.0)
        jc = [Job(c, k, 0.1 * k, 10.0) for k in range(5)]
        for job in (ja, jb, *reversed(jc)):
            lc.admit(job, 0.4)
        lc.complete(ja, 0.4)
        lc.complete(jb, 0.4)
        view = _heads_view(lc, 0.4)
        assert view._pending[id(a)] == view._pending[id(b)] == ()
        assert edf_pick(view) is jc[0]
        lc.complete(jc[0], 0.5)
        assert edf_pick(_heads_view(lc, 0.5)) is jc[1]


class TestEdfPickByScan:
    def test_bare_list_view(self):
        a, b = _task("A", 1.0), _task("B", 0.5)
        jobs = [Job(a, 0, 0.0, 10.0), Job(b, 1, 0.2, 10.0), Job(b, 0, 0.0, 10.0)]
        view = _view([a, b], jobs)
        assert edf_pick(view) is jobs[2]
        assert view._pending is None  # the scan builds no pending map

    def test_without_view(self):
        a, b = _task("A", 1.0), _task("B", 0.5)
        lc = _lifecycle([a, b])
        jobs = [Job(a, 0, 0.0, 10.0), Job(b, 0, 0.0, 10.0), Job(b, 1, 0.2, 10.0)]
        for job in jobs:
            lc.admit(job, 0.2)
        view = _heads_view(lc, 0.2)
        assert edf_pick(view) is jobs[1]
        derived = view.without([jobs[1]])
        assert edf_pick(derived) is jobs[2]
        assert derived._pending is None  # the map stays underived


class TestEDFStatic:
    def test_runs_at_fmax_by_default(self):
        sched = EDFStatic()
        task = _task()
        d = sched.decide(_view([task], [Job(task, 0, 0.0, 10.0)]))
        assert d.frequency == 1000.0

    def test_pinned_frequency(self):
        sched = EDFStatic(frequency=550.0)
        task = _task()
        d = sched.decide(_view([task], [Job(task, 0, 0.0, 10.0)]))
        assert d.frequency == 550.0

    def test_off_ladder_frequency_quantised(self):
        sched = EDFStatic(frequency=600.0)
        task = _task()
        d = sched.decide(_view([task], [Job(task, 0, 0.0, 10.0)]))
        assert d.frequency == 640.0

    def test_na_variant_flag(self):
        assert EDFStatic().abort_expired
        assert not EDFStatic(abort_expired=False).abort_expired

    def test_never_aborts(self):
        sched = EDFStatic()
        task = _task(window=0.001)  # hopeless
        d = sched.decide(_view([task], [Job(task, 0, 0.0, 10.0)]))
        assert d.aborts == ()
