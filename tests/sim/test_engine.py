"""Tests for the discrete-event engine (repro.sim.engine)."""

import numpy as np
import pytest

from repro.arrivals import UAMSpec
from repro.cpu import EnergyModel, FrequencyScale, Processor
from repro.demand import DemandProfiler, DeterministicDemand
from repro.obs import EventKind, Observer
from repro.sched import Decision, EDFStatic, Scheduler
from repro.sim import (
    Engine,
    JobStatus,
    SimulationError,
    Task,
    TaskSet,
    WorkloadTrace,
    simulate,
)
from repro.sim.workload import JobSpec
from repro.tuf import StepTUF


def _platform_processor(levels=(500.0, 1000.0)):
    return Processor(FrequencyScale(levels), EnergyModel.e1())


def _task(name="T", window=1.0, umax=10.0, mean=100.0, abortable=True):
    return Task(
        name,
        StepTUF(umax, window),
        DeterministicDemand(mean),
        UAMSpec(1, window),
        abortable=abortable,
    )


def _trace(task_jobs, horizon):
    """task_jobs: list of (task, [(release, demand), ...])."""
    specs = []
    taskset = TaskSet([t for t, _ in task_jobs])
    for task, jobs in task_jobs:
        for idx, (release, demand) in enumerate(jobs):
            specs.append(JobSpec(task, idx, release, demand))
    return WorkloadTrace(taskset, horizon, specs)


class TestBasicExecution:
    def test_single_job_completes(self):
        task = _task(mean=100.0)
        trace = _trace([(task, [(0.0, 100.0)])], horizon=1.0)
        result = Engine(trace, EDFStatic(), _platform_processor()).run()
        (job,) = result.jobs
        assert job.status is JobStatus.COMPLETED
        assert job.completion_time == pytest.approx(0.1)  # 100 Mc @ 1000 MHz
        assert job.accrued_utility == 10.0

    def test_energy_accounting(self):
        task = _task(mean=100.0)
        trace = _trace([(task, [(0.0, 100.0)])], horizon=1.0)
        result = Engine(trace, EDFStatic(), _platform_processor()).run()
        assert result.energy == pytest.approx(100.0 * 1000.0**2)

    def test_sequential_jobs(self):
        task = _task(window=0.5, mean=100.0)
        trace = _trace([(task, [(0.0, 100.0), (0.5, 100.0)])], horizon=1.0)
        result = Engine(trace, EDFStatic(), _platform_processor()).run()
        assert [j.completion_time for j in result.jobs] == [
            pytest.approx(0.1),
            pytest.approx(0.6),
        ]

    def test_idle_between_jobs(self):
        task = _task(window=0.5, mean=100.0)
        trace = _trace([(task, [(0.0, 100.0), (0.5, 100.0)])], horizon=1.0)
        engine = Engine(trace, EDFStatic(), _platform_processor())
        result = engine.run()
        assert result.processor_stats.idle_time == pytest.approx(0.8)
        assert result.processor_stats.busy_time == pytest.approx(0.2)

    def test_edf_preemption(self):
        # Long low-urgency job released first, short urgent one at 0.1.
        long_task = _task("L", window=2.0, mean=1000.0)
        short_task = _task("S", window=0.3, mean=100.0)
        trace = _trace(
            [(long_task, [(0.0, 1000.0)]), (short_task, [(0.1, 100.0)])],
            horizon=2.0,
        )
        obs = Observer(events=True, metrics=False)
        result = Engine(trace, EDFStatic(), _platform_processor(), observer=obs).run()
        by_key = {j.key: j for j in result.jobs}
        assert by_key["S:0"].completion_time == pytest.approx(0.2)
        assert by_key["L:0"].completion_time == pytest.approx(1.1)
        preempts = obs.events.of_kind(EventKind.PREEMPT)
        assert [(e.job, e.fields["preempted_by"]) for e in preempts] == [("L:0", "S:0")]

    def test_utility_zero_when_completing_late_na(self):
        # Non-abortable policy: job finishes past its termination, 0 utility.
        task = _task(window=0.05, mean=100.0)  # needs 0.1 s at f_max
        trace = _trace([(task, [(0.0, 100.0)])], horizon=1.0)
        result = Engine(
            trace, EDFStatic(abort_expired=False), _platform_processor()
        ).run()
        (job,) = result.jobs
        assert job.status is JobStatus.COMPLETED
        assert job.accrued_utility == 0.0


class TestExpiry:
    def test_expired_job_aborted(self):
        task = _task(window=0.05, mean=100.0)
        trace = _trace([(task, [(0.0, 100.0)])], horizon=1.0)
        result = Engine(trace, EDFStatic(), _platform_processor()).run()
        (job,) = result.jobs
        assert job.status is JobStatus.EXPIRED
        assert job.abort_time == pytest.approx(0.05)
        assert job.accrued_utility == 0.0

    def test_expiry_frees_cpu_for_next_job(self):
        doomed = _task("D", window=0.05, mean=100.0)
        ok = _task("K", window=1.0, mean=100.0)
        trace = _trace(
            [(doomed, [(0.0, 100.0)]), (ok, [(0.0, 100.0)])], horizon=1.0
        )
        result = Engine(trace, EDFStatic(), _platform_processor()).run()
        by_key = {j.key: j for j in result.jobs}
        # EDF runs the doomed job (earlier deadline) until it expires at
        # 0.05, then the other completes at 0.05 + remaining.
        assert by_key["D:0"].status is JobStatus.EXPIRED
        assert by_key["K:0"].status is JobStatus.COMPLETED
        assert by_key["K:0"].completion_time == pytest.approx(0.15)

    def test_non_abortable_task_never_auto_expires(self):
        task = _task(window=0.05, mean=100.0, abortable=False)
        trace = _trace([(task, [(0.0, 100.0)])], horizon=1.0)
        result = Engine(trace, EDFStatic(), _platform_processor()).run()
        (job,) = result.jobs
        assert job.status is JobStatus.COMPLETED
        assert job.accrued_utility == 0.0


class TestSchedulerContract:
    def test_scheduler_abort_applied(self):
        class AbortAll(Scheduler):
            name = "abort-all"

            def decide(self, view):
                return Decision(job=None, frequency=view.scale.f_max,
                                aborts=tuple(view.ready))

        task = _task(mean=100.0)
        trace = _trace([(task, [(0.0, 100.0)])], horizon=1.0)
        result = Engine(trace, AbortAll(), _platform_processor()).run()
        assert result.jobs[0].status is JobStatus.ABORTED

    def test_selecting_foreign_job_rejected(self):
        class Rogue(Scheduler):
            name = "rogue"

            def decide(self, view):
                from repro.sim import Job

                ghost = Job(view.taskset[0], 99, view.time, 1.0)
                return Decision(job=ghost, frequency=view.scale.f_max)

        task = _task(mean=100.0)
        trace = _trace([(task, [(0.0, 100.0)])], horizon=1.0)
        with pytest.raises(SimulationError):
            Engine(trace, Rogue(), _platform_processor()).run()

    def test_on_completion_called(self):
        seen = []

        class Watcher(EDFStatic):
            def on_completion(self, job, time):
                seen.append((job.key, time))

        task = _task(mean=100.0)
        trace = _trace([(task, [(0.0, 100.0)])], horizon=1.0)
        Engine(trace, Watcher(), _platform_processor()).run()
        assert seen == [("T:0", pytest.approx(0.1))]

    def test_idle_scheduler_leaves_jobs_unfinished(self):
        class Lazy(Scheduler):
            name = "lazy"
            abort_expired = False

            def decide(self, view):
                return Decision(job=None, frequency=view.scale.f_max)

        task = _task(mean=100.0)
        trace = _trace([(task, [(0.0, 100.0)])], horizon=1.0)
        result = Engine(trace, Lazy(), _platform_processor()).run()
        assert result.jobs[0].status is JobStatus.PENDING
        assert result.metrics.unfinished == 1


class TestFrequencySemantics:
    def test_runs_at_decided_frequency(self):
        class SlowEDF(EDFStatic):
            def decide(self, view):
                d = super().decide(view)
                return Decision(job=d.job, frequency=500.0)

        task = _task(mean=100.0)
        trace = _trace([(task, [(0.0, 100.0)])], horizon=1.0)
        result = Engine(trace, SlowEDF(), _platform_processor()).run()
        assert result.jobs[0].completion_time == pytest.approx(0.2)
        assert result.energy == pytest.approx(100.0 * 500.0**2)

    def test_frequency_change_mid_job(self):
        # Switch from 500 to 1000 when the second job arrives.
        class Adaptive(EDFStatic):
            def decide(self, view):
                d = super().decide(view)
                f = 1000.0 if len(view.ready) > 1 else 500.0
                return Decision(job=d.job, frequency=f)

        t1 = _task("A", window=2.0, mean=1000.0)
        t2 = _task("B", window=2.0, mean=1.0)
        trace = _trace(
            [(t1, [(0.0, 1000.0)]), (t2, [(0.5, 1.0)])], horizon=3.0
        )
        result = Engine(trace, Adaptive(), _platform_processor()).run()
        by_key = {j.key: j for j in result.jobs}
        # A (earlier absolute deadline) runs 0.5 s at 500 MHz (250 Mc);
        # B's arrival raises the frequency to 1000, still running A:
        # remaining 750 Mc complete at 0.5 + 0.75 = 1.25.  Then B alone
        # drops back to 500 MHz: 1 Mc in 0.002 s.
        assert by_key["A:0"].completion_time == pytest.approx(1.25)
        assert by_key["B:0"].completion_time == pytest.approx(1.252)


class TestFreqTraceEvents:
    """FREQ_SWITCH events must mark actual level changes, not dispatches."""

    def test_no_freq_event_without_a_switch(self):
        # Two jobs, both dispatched at the ladder's resident f_max: the
        # frequency never changes, so the log must carry no FREQ_SWITCH
        # events (the old guard emitted one per dispatch).
        task = _task(window=0.5, mean=100.0)
        trace = _trace([(task, [(0.0, 100.0), (0.5, 100.0)])], horizon=1.0)
        obs = Observer(events=True, metrics=False)
        result = Engine(trace, EDFStatic(), _platform_processor(), observer=obs).run()
        assert obs.events.of_kind(EventKind.FREQ_SWITCH) == []
        assert result.processor_stats.switch_count == 0

    def test_freq_events_match_switch_count_and_changes(self):
        # A policy that alternates levels per dispatch: every FREQ_SWITCH
        # event must carry a value different from the previous one, and
        # the event count must equal the processor's switch counter.
        class Alternating(EDFStatic):
            def decide(self, view):
                d = super().decide(view)
                f = 500.0 if int(view.time * 2) % 2 == 0 else 1000.0
                return Decision(job=d.job, frequency=f)

        task = _task(window=0.5, mean=100.0)
        trace = _trace(
            [(task, [(0.0, 100.0), (0.5, 100.0), (1.0, 100.0)])], horizon=2.0
        )
        cpu = _platform_processor()
        obs = Observer(events=True, metrics=False)
        Engine(trace, Alternating(), cpu, observer=obs).run()
        freq_events = obs.events.of_kind(EventKind.FREQ_SWITCH)
        assert len(freq_events) == cpu.stats.switch_count > 0
        previous = 1000.0  # ladder resident level at t=0
        for event in freq_events:
            assert event.fields["previous"] == previous
            assert event.fields["frequency"] != previous
            previous = event.fields["frequency"]


class TestHorizonAndProfiler:
    def test_unfinished_at_horizon(self):
        task = _task(window=3.0, mean=2000.0)
        trace = WorkloadTrace(
            TaskSet([task]), 1.0, [JobSpec(task, 0, 0.0, 2000.0)]
        )
        result = Engine(trace, EDFStatic(), _platform_processor()).run()
        assert result.jobs[0].status is JobStatus.PENDING
        assert result.jobs[0].executed == pytest.approx(1000.0)

    def test_profiler_records_actual_cycles(self):
        profiler = DemandProfiler()
        task = _task(window=0.5, mean=100.0)
        trace = _trace([(task, [(0.0, 100.0), (0.5, 100.0)])], horizon=1.0)
        result = Engine(trace, EDFStatic(), _platform_processor()).run()
        profiler.record_completed(result.jobs)
        assert profiler.count("T") == 2
        assert profiler.mean("T") == pytest.approx(100.0)


class TestSimulateWrapper:
    def test_simulate_from_taskset(self, platform_e1, small_taskset):
        result = simulate(small_taskset, EDFStatic(), platform_e1, horizon=2.0, seed=3)
        assert result.metrics.completed > 0
        assert result.scheduler_name == "EDF"

    def test_simulate_requires_horizon_for_taskset(self, platform_e1, small_taskset):
        with pytest.raises(ValueError):
            simulate(small_taskset, EDFStatic(), platform_e1)


class TestSwitchOverheads:
    def test_switch_time_delays_completion(self):
        cpu = Processor(
            FrequencyScale((500.0, 1000.0)), EnergyModel.e1(), switch_time=0.01
        )
        task = _task(mean=100.0)

        class SlowFirst(EDFStatic):
            def decide(self, view):
                d = super().decide(view)
                return Decision(job=d.job, frequency=500.0)

        trace = _trace([(task, [(0.0, 100.0)])], horizon=1.0)
        result = Engine(trace, SlowFirst(), cpu).run()
        # One switch (1000 -> 500) costs 0.01 s before execution begins.
        assert result.jobs[0].completion_time == pytest.approx(0.01 + 0.2)
        assert cpu.stats.switch_count == 1

    def test_switch_energy_charged(self):
        cpu = Processor(
            FrequencyScale((500.0, 1000.0)), EnergyModel.e1(), switch_energy=123.0
        )

        class SlowFirst(EDFStatic):
            def decide(self, view):
                d = super().decide(view)
                return Decision(job=d.job, frequency=500.0)

        task = _task(mean=100.0)
        trace = _trace([(task, [(0.0, 100.0)])], horizon=1.0)
        result = Engine(trace, SlowFirst(), cpu).run()
        assert result.processor_stats.switch_energy == pytest.approx(123.0)
        assert result.energy == pytest.approx(100.0 * 500.0**2 + 123.0)

    def test_idle_power_charged_through_result(self):
        cpu = Processor(FrequencyScale((1000.0,)), EnergyModel.e1(), idle_power=7.0)
        task = _task(mean=100.0)
        trace = _trace([(task, [(0.0, 100.0)])], horizon=1.0)
        result = Engine(trace, EDFStatic(), cpu).run()
        # 0.1 s busy, 0.9 s idle at 7 units/s.
        assert result.processor_stats.idle_energy == pytest.approx(6.3)
        assert result.energy == pytest.approx(100.0 * 1000.0**2 + 6.3)
