"""Integration tests for the adaptive runtime wired into the engine.

Covers the ISSUE acceptance criteria: the disabled runtime is a
bit-identical no-op on a compliant workload, shed keeps every accepted
stream inside its envelope, defer preserves order, every violation
round-trips through JSONL, and ``finalize()`` restores allocations.
"""

import numpy as np
import pytest

from repro.core import EUAStar
from repro.experiments.adaptive import drifting_trace, uam_violating_trace
from repro.experiments.workload import synthesize_taskset
from repro.arrivals import is_uam_compliant
from repro.obs import EventKind, Observer, events_from_jsonl, events_to_jsonl
from repro.runtime import AdaptiveRuntime, RuntimeConfig
from repro.sim import Job, JobStatus, Platform, materialize, simulate

PLATFORM = Platform.powernow_k6()


def compliant_trace(seed=11, load=0.8, horizon=0.4):
    rng = np.random.default_rng(seed)
    ts = synthesize_taskset(load, rng, f_max=PLATFORM.scale.f_max)
    return materialize(ts, horizon, rng)


def release_times_by_task(log):
    out = {}
    for e in log.of_kind(EventKind.RELEASE):
        task = e.job.rsplit(":", 1)[0]
        out.setdefault(task, []).append(e.fields["release"])
    return out


class TestNoOpEquivalence:
    def test_disabled_runtime_is_bit_identical(self):
        """ISSUE criterion: adaptation disabled + compliant workload →
        the attached runtime changes nothing, down to the event log."""
        trace = compliant_trace()
        obs_plain, obs_rt = Observer(), Observer()
        plain = simulate(trace, EUAStar(), PLATFORM, observer=obs_plain)
        rt = AdaptiveRuntime(RuntimeConfig(adapt=False, admission=False))
        with_rt = simulate(trace, EUAStar(), PLATFORM, observer=obs_rt, runtime=rt)

        assert obs_plain.events == obs_rt.events  # full structured log
        assert plain.metrics.accrued_utility == with_rt.metrics.accrued_utility
        assert plain.metrics.energy == with_rt.metrics.energy
        assert [j.status for j in plain.jobs] == [j.status for j in with_rt.jobs]
        assert [j.executed for j in plain.jobs] == [j.executed for j in with_rt.jobs]
        assert rt.summary()["uam_violations"] == 0

    def test_full_runtime_is_silent_on_compliant_in_model_workload(self):
        """Even with every layer armed, a workload that honours its
        declared parameters triggers nothing (short horizon keeps the
        detectors below threshold)."""
        trace = compliant_trace()
        obs_plain, obs_rt = Observer(), Observer()
        plain = simulate(trace, EUAStar(), PLATFORM, observer=obs_plain)
        rt = AdaptiveRuntime(RuntimeConfig())
        with_rt = simulate(trace, EUAStar(), PLATFORM, observer=obs_rt, runtime=rt)
        assert rt.summary()["reallocations"] == 0
        assert rt.summary()["shed_jobs"] == 0
        assert obs_plain.events == obs_rt.events
        assert plain.metrics.energy == with_rt.metrics.energy


class TestShedPolicy:
    def test_accepted_releases_stay_inside_envelope(self):
        """Shed invariant, end to end: the RELEASE stream the scheduler
        actually sees never exceeds a_i arrivals per P_i window."""
        trace = uam_violating_trace(seed=11, load=0.9, horizon=1.0, burst_factor=3)
        obs = Observer()
        rt = AdaptiveRuntime(RuntimeConfig(policy="shed", adapt=False, admission=False))
        result = simulate(trace, EUAStar(), PLATFORM, observer=obs, runtime=rt)

        assert rt.summary()["uam_violations"] > 0
        for task in trace.taskset:
            released = release_times_by_task(obs.events).get(task.name, [])
            assert is_uam_compliant(released, task.uam)
        # Shed jobs are visible in the metrics, not silently vanished.
        assert result.metrics.shed == rt.summary()["shed_jobs"] > 0

    def test_shed_jobs_never_execute(self):
        trace = uam_violating_trace(seed=11, load=0.9, horizon=1.0, burst_factor=3)
        rt = AdaptiveRuntime(RuntimeConfig(policy="shed", adapt=False, admission=False))
        result = simulate(trace, EUAStar(), PLATFORM, runtime=rt)
        for job in result.jobs:
            if job.status is JobStatus.SHED:
                assert job.executed == 0.0


class TestDeferPolicy:
    def test_deferred_releases_preserve_order_and_compliance(self):
        trace = uam_violating_trace(seed=11, load=0.9, horizon=1.0, burst_factor=2)
        obs = Observer()
        rt = AdaptiveRuntime(RuntimeConfig(policy="defer", adapt=False, admission=False))
        simulate(trace, EUAStar(), PLATFORM, observer=obs, runtime=rt)

        assert rt.summary()["deferred_jobs"] > 0
        by_task = release_times_by_task(obs.events)
        for task in trace.taskset:
            released = by_task.get(task.name, [])
            # Compliance after deferral...
            assert is_uam_compliant(released, task.uam)
        # ...and FIFO order within each task: the engine's release stream
        # carries job indices in arrival order even through the heap.
        for e_prev, e_next in zip(obs.events.of_kind(EventKind.RELEASE),
                                  obs.events.of_kind(EventKind.RELEASE)[1:]):
            assert e_prev.time <= e_next.time

    def test_defer_emits_violation_with_grant(self):
        trace = uam_violating_trace(seed=11, load=0.9, horizon=1.0, burst_factor=2)
        obs = Observer()
        rt = AdaptiveRuntime(RuntimeConfig(policy="defer", adapt=False, admission=False))
        simulate(trace, EUAStar(), PLATFORM, observer=obs, runtime=rt)
        violations = obs.events.of_kind(EventKind.UAM_VIOLATION)
        assert violations
        for e in violations:
            assert e.fields["policy"] == "defer"
            assert e.fields["deferred_to"] is not None


class TestArrivalVerdict:
    @pytest.mark.parametrize("policy, action, reason", [
        ("shed", "shed", "uam-violation"),
        ("defer", "defer", "uam-deferral"),
        ("admit-and-flag", "admit", "feasible"),
    ])
    def test_verdict_names_its_reason(self, policy, action, reason):
        ts = synthesize_taskset(0.8, np.random.default_rng(11), f_max=PLATFORM.scale.f_max)
        task = ts[0]
        assert task.uam.max_arrivals == 1
        rt = AdaptiveRuntime(RuntimeConfig(policy=policy, adapt=False))
        rt.bind(ts, PLATFORM.scale, PLATFORM.energy_model, EUAStar())
        first = rt.on_arrival(Job(task, 0, 0.0, task.allocation), 0.0, [])
        assert (first.action, first.reason) == ("admit", "feasible")
        second = rt.on_arrival(Job(task, 1, 0.0, task.allocation), 0.0, [])
        assert (second.action, second.reason) == (action, reason)


class TestEventRoundTrip:
    def test_every_violation_emits_event_that_round_trips_jsonl(self):
        trace = uam_violating_trace(seed=11, load=0.9, horizon=1.0, burst_factor=3)
        obs = Observer()
        rt = AdaptiveRuntime(RuntimeConfig(policy="admit-and-flag", adapt=False,
                                           admission=True))
        simulate(trace, EUAStar(), PLATFORM, observer=obs, runtime=rt)

        violations = obs.events.of_kind(EventKind.UAM_VIOLATION)
        assert len(violations) == rt.summary()["uam_violations"] > 0
        admissions = obs.events.of_kind(EventKind.ADMISSION_DECISION)
        assert admissions  # flagged overload forces rejections/evictions

        restored = events_from_jsonl(events_to_jsonl(obs.events))
        assert restored == obs.events
        assert [e.kind for e in restored.of_kind(EventKind.UAM_VIOLATION)] == \
               [e.kind for e in violations]

    def test_drift_and_reallocation_round_trip(self):
        trace = drifting_trace(seed=11, load=0.9, horizon=1.0)
        obs = Observer()
        rt = AdaptiveRuntime(RuntimeConfig(admission=False))
        simulate(trace, EUAStar(), PLATFORM, observer=obs, runtime=rt)
        drifts = obs.events.of_kind(EventKind.DRIFT_DETECTED)
        reallocs = obs.events.of_kind(EventKind.REALLOCATION)
        assert len(drifts) == len(reallocs) == rt.summary()["reallocations"] > 0
        for e in reallocs:
            assert e.fields["new_allocation"] > 0.0
        assert events_from_jsonl(events_to_jsonl(obs.events)) == obs.events


class TestAllocationRestore:
    def test_finalize_restores_original_allocations(self):
        trace = drifting_trace(seed=11, load=0.9, horizon=1.0)
        before = {t.name: t.allocation for t in trace.taskset}
        rt = AdaptiveRuntime(RuntimeConfig(admission=False))
        simulate(trace, EUAStar(), PLATFORM, runtime=rt)
        assert rt.summary()["reallocations"] > 0  # it really did mutate
        after = {t.name: t.allocation for t in trace.taskset}
        assert before == after

    def test_restore_even_when_run_raises(self):
        trace = drifting_trace(seed=11, load=0.9, horizon=1.0)
        before = {t.name: t.allocation for t in trace.taskset}

        class Boom(RuntimeError):
            pass

        class ExplodingScheduler(EUAStar):
            def __init__(self):
                super().__init__(name="boom")
                self.decisions = 0

            def decide(self, view):
                self.decisions += 1
                if self.decisions > 40:
                    raise Boom()
                return super().decide(view)

        rt = AdaptiveRuntime(RuntimeConfig(admission=False, min_samples=2,
                                           drift_threshold=1.0))
        with pytest.raises(Boom):
            simulate(trace, ExplodingScheduler(), PLATFORM, runtime=rt)
        after = {t.name: t.allocation for t in trace.taskset}
        assert before == after

    def test_back_to_back_arms_agree_regardless_of_order(self):
        """finalize() means a static arm run after the adaptive arm sees
        the same task set as one run before it."""
        trace = drifting_trace(seed=11, load=0.9, horizon=1.0)
        static_first = simulate(trace, EUAStar(), PLATFORM)
        rt = AdaptiveRuntime(RuntimeConfig())
        simulate(trace, EUAStar(), PLATFORM, runtime=rt)
        static_second = simulate(trace, EUAStar(), PLATFORM)
        assert static_first.metrics.accrued_utility == static_second.metrics.accrued_utility
        assert static_first.metrics.energy == static_second.metrics.energy
