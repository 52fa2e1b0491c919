"""Post-hoc audit of uniprocessor runs (`repro.check.audit`).

Clean runs audit empty; each tamper case edits one recorded fact and
must be reported under its catalogue key.
"""

import numpy as np
import pytest

from repro.check import audit
from repro.core import EUAStar
from repro.cpu import EnergyModel
from repro.experiments import synthesize_taskset
from repro.sched import EDFStatic, LAEDF
from repro.sim import Platform, materialize, simulate
from repro.sim.trace import Segment


def _keys(result, platform, model=None):
    model = model if model is not None else platform.energy_model
    return {v.invariant for v in audit(result, model, platform.idle_power)}


class TestCleanRuns:
    @pytest.mark.parametrize("policy", [EUAStar, EDFStatic, LAEDF])
    def test_underload_runs_validate(self, policy, platform_e1, small_taskset):
        trace = materialize(small_taskset, 2.0, np.random.default_rng(61))
        result = simulate(trace, policy(), platform_e1, record_trace=True)
        assert audit(result, platform_e1.energy_model, platform_e1.idle_power) == []
        assert len(result.trace.segments) > 10

    def test_overload_run_validates(self, platform_e1, overload_taskset):
        trace = materialize(overload_taskset, 2.0, np.random.default_rng(62))
        result = simulate(trace, EUAStar(), platform_e1, record_trace=True)
        assert audit(result, platform_e1.energy_model, platform_e1.idle_power) == []

    def test_switch_stall_run_validates(self):
        # DVS switch stalls are idle time on the timeline: the segments
        # must still tile [0, horizon] with every stall recorded.
        rng = np.random.default_rng(11)
        trace = materialize(synthesize_taskset(0.8, rng), 1.0, rng)
        platform = Platform(switch_time=1e-4)
        result = simulate(trace, EUAStar(), platform, record_trace=True)
        assert result.processor_stats.switch_count > 0
        assert audit(result, platform.energy_model, platform.idle_power) == []

    def test_e3_energy_validates(self, platform_e3, small_taskset):
        trace = materialize(small_taskset, 2.0, np.random.default_rng(63))
        result = simulate(trace, EUAStar(), platform_e3, record_trace=True)
        assert audit(result, platform_e3.energy_model, platform_e3.idle_power) == []


class TestDetection:
    def _valid_result(self, platform, taskset):
        trace = materialize(taskset, 1.0, np.random.default_rng(64))
        return simulate(trace, EDFStatic(), platform, record_trace=True)

    def test_missing_trace_flagged(self, platform_e1, small_taskset):
        trace = materialize(small_taskset, 1.0, np.random.default_rng(65))
        result = simulate(trace, EDFStatic(), platform_e1, record_trace=False)
        assert "timeline_tiling" in _keys(result, platform_e1)

    def test_tampered_utility_detected(self, platform_e1, small_taskset):
        result = self._valid_result(platform_e1, small_taskset)
        done = next(j for j in result.jobs if j.completion_time is not None)
        done.accrued_utility += 1.0
        assert {"utility_accrual", "metrics_consistency"} <= _keys(result, platform_e1)

    def test_tampered_cycles_detected(self, platform_e1, small_taskset):
        result = self._valid_result(platform_e1, small_taskset)
        result.jobs[0].executed += 5.0
        assert "cycle_conservation" in _keys(result, platform_e1)

    def test_timeline_gap_detected(self, platform_e1, small_taskset):
        result = self._valid_result(platform_e1, small_taskset)
        del result.trace.segments[1]
        assert "timeline_tiling" in _keys(result, platform_e1)

    def test_wrong_energy_model_detected(self, platform_e1, small_taskset):
        # Note: E1 and E3 coincide exactly at f_max (both f_max^2 per
        # cycle), so use a model that differs there.
        result = self._valid_result(platform_e1, small_taskset)
        keys = _keys(result, platform_e1, EnergyModel.cpu_only(2.0))
        assert keys == {"energy_conservation"}

    def test_pre_release_execution_detected(self, platform_e1, small_taskset):
        result = self._valid_result(platform_e1, small_taskset)
        late_job = max(result.jobs, key=lambda j: j.release)
        # Forge a segment executing the job before its release, and move
        # the corresponding cycles out of an existing segment so cycle
        # conservation still holds.
        seg = next(s for s in result.trace.busy_segments() if s.job_key == late_job.key)
        idx = result.trace.segments.index(seg)
        result.trace.segments[idx] = Segment(seg.start, seg.end, None, seg.frequency)
        result.trace.segments.insert(
            0, Segment(late_job.release - 0.5, late_job.release - 0.5 + seg.duration,
                       late_job.key, seg.frequency)
        )
        found = audit(result, platform_e1.energy_model, platform_e1.idle_power)
        assert any(v.invariant == "execution_window" and "before its release" in v.detail
                   for v in found), [str(v) for v in found]

    def test_execution_after_completion_detected(self, platform_e1, small_taskset):
        result = self._valid_result(platform_e1, small_taskset)
        done = next(j for j in result.jobs if j.completion_time is not None)
        last = [s for s in result.trace.busy_segments() if s.job_key == done.key][-1]
        done.completion_time = last.start
        found = [v.detail for v in audit(result, platform_e1.energy_model,
                                         platform_e1.idle_power)
                 if v.invariant == "execution_window"]
        assert any("after finishing" in d for d in found), found
        assert any("last ran until" in d for d in found), found
