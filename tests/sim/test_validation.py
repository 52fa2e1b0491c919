"""Tests for the post-hoc result validator (repro.sim.validation)."""

import numpy as np
import pytest

from repro.core import EUAStar
from repro.cpu import EnergyModel
from repro.experiments import synthesize_taskset
from repro.sched import EDFStatic, LAEDF
from repro.sim import Platform, materialize, simulate, validate_result
from repro.sim.trace import Segment


class TestCleanRuns:
    @pytest.mark.parametrize("policy", [EUAStar, EDFStatic, LAEDF])
    def test_underload_runs_validate(self, policy, platform_e1, small_taskset):
        trace = materialize(small_taskset, 2.0, np.random.default_rng(61))
        result = simulate(trace, policy(), platform_e1, record_trace=True)
        report = validate_result(result, platform_e1.energy_model)
        assert report.ok, str(report)
        assert report.checks_run > 50

    def test_overload_run_validates(self, platform_e1, overload_taskset):
        trace = materialize(overload_taskset, 2.0, np.random.default_rng(62))
        result = simulate(trace, EUAStar(), platform_e1, record_trace=True)
        report = validate_result(result, platform_e1.energy_model)
        assert report.ok, str(report)

    def test_switch_stall_run_validates(self):
        # DVS switch stalls are idle time on the timeline: the segments
        # must still tile [0, horizon] with every stall recorded.
        rng = np.random.default_rng(11)
        trace = materialize(synthesize_taskset(0.8, rng), 1.0, rng)
        platform = Platform(switch_time=1e-4)
        result = simulate(trace, EUAStar(), platform, record_trace=True)
        assert result.processor_stats.switch_count > 0
        report = validate_result(result, platform.energy_model)
        assert report.ok, str(report)

    def test_e3_energy_validates(self, platform_e3, small_taskset):
        trace = materialize(small_taskset, 2.0, np.random.default_rng(63))
        result = simulate(trace, EUAStar(), platform_e3, record_trace=True)
        report = validate_result(result, platform_e3.energy_model)
        assert report.ok, str(report)


class TestDetection:
    def _valid_result(self, platform, taskset):
        trace = materialize(taskset, 1.0, np.random.default_rng(64))
        return simulate(trace, EDFStatic(), platform, record_trace=True)

    def test_missing_trace_flagged(self, platform_e1, small_taskset):
        trace = materialize(small_taskset, 1.0, np.random.default_rng(65))
        result = simulate(trace, EDFStatic(), platform_e1, record_trace=False)
        report = validate_result(result, platform_e1.energy_model)
        assert not report.ok

    def test_tampered_utility_detected(self, platform_e1, small_taskset):
        result = self._valid_result(platform_e1, small_taskset)
        done = next(j for j in result.jobs if j.completion_time is not None)
        done.accrued_utility += 1.0
        report = validate_result(result, platform_e1.energy_model)
        assert not report.ok

    def test_tampered_cycles_detected(self, platform_e1, small_taskset):
        result = self._valid_result(platform_e1, small_taskset)
        result.jobs[0].executed += 5.0
        report = validate_result(result, platform_e1.energy_model)
        assert not report.ok

    def test_timeline_gap_detected(self, platform_e1, small_taskset):
        result = self._valid_result(platform_e1, small_taskset)
        del result.trace.segments[1]
        report = validate_result(result, platform_e1.energy_model)
        assert not report.ok

    def test_wrong_energy_model_detected(self, platform_e1, small_taskset):
        # Note: E1 and E3 coincide exactly at f_max (both f_max^2 per
        # cycle), so use a model that differs there.
        result = self._valid_result(platform_e1, small_taskset)
        report = validate_result(result, EnergyModel.cpu_only(2.0))
        assert not report.ok

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
        report = validate_result(result, platform_e1.energy_model)
        assert not report.ok

    def test_execution_after_completion_detected(self, platform_e1, small_taskset):
        result = self._valid_result(platform_e1, small_taskset)
        done = next(j for j in result.jobs if j.completion_time is not None)
        last = [s for s in result.trace.busy_segments() if s.job_key == done.key][-1]
        done.completion_time = last.start
        report = validate_result(result, platform_e1.energy_model)
        assert any("after finishing" in v for v in report.violations), str(report)
        assert any("last ran until" in v for v in report.violations), str(report)
