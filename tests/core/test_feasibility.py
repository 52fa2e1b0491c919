"""Tests for schedule feasibility (repro.core.feasibility)."""

import math

import pytest

from repro.core import (
    IncrementalSchedule,
    insert_by_critical_time,
    job_feasible,
    predicted_completions,
    schedule_feasible,
)
from repro.core.feasibility import _EPS, _deadline_slack
from repro.arrivals import UAMSpec
from repro.demand import DeterministicDemand
from repro.sim import Job, Task
from repro.tuf import StepTUF


def _job(name="T", release=0.0, window=1.0, mean=100.0, demand=None):
    task = Task(name, StepTUF(5.0, window), DeterministicDemand(mean), UAMSpec(1, window))
    return Job(task, 0, release, demand if demand is not None else mean)


def _arrays(inc):
    """All five parallel arrays of an IncrementalSchedule, copied."""
    return (list(inc._jobs), list(inc._crit), list(inc._completions),
            list(inc._durs), list(inc._thrs))


class TestJobFeasible:
    def test_feasible_with_slack(self):
        job = _job(mean=100.0, window=1.0)
        assert job_feasible(job, now=0.0, f_max=1000.0)

    def test_infeasible_past_point_of_no_return(self):
        job = _job(mean=100.0, window=1.0)
        assert not job_feasible(job, now=0.95, f_max=1000.0)

    def test_exactly_at_termination_is_infeasible(self):
        # Completing *at* the termination accrues zero utility.
        job = _job(mean=100.0, window=0.1)
        assert not job_feasible(job, now=0.0, f_max=1000.0)

    def test_partial_execution_restores_feasibility(self):
        job = _job(mean=100.0, window=0.1)
        job.executed = 60.0
        assert job_feasible(job, now=0.05, f_max=1000.0)


class TestScheduleFeasible:
    def test_empty_schedule(self):
        assert schedule_feasible([], now=0.0, f_max=1000.0)

    def test_back_to_back_fits(self):
        j1 = _job("A", window=0.2, mean=100.0)
        j2 = _job("B", window=0.5, mean=100.0)
        assert schedule_feasible([j1, j2], now=0.0, f_max=1000.0)

    def test_second_job_squeezed_out(self):
        j1 = _job("A", window=0.2, mean=150.0)
        j2 = _job("B", window=0.2, mean=100.0)
        # j2 predicted completion 0.25 >= 0.2.
        assert not schedule_feasible([j1, j2], now=0.0, f_max=1000.0)

    def test_predicted_completions(self):
        j1 = _job("A", window=1.0, mean=100.0)
        j2 = _job("B", window=1.0, mean=200.0)
        times = predicted_completions([j1, j2], now=0.5, f_max=1000.0)
        assert times == [pytest.approx(0.6), pytest.approx(0.8)]

    def test_uses_budget_not_true_demand(self):
        # Budget (allocation) is 100 but the true demand is 400: the
        # schedule must be judged on what the scheduler can know.
        j = _job("A", window=0.2, mean=100.0, demand=400.0)
        assert schedule_feasible([j], now=0.0, f_max=1000.0)


class TestInsertByCriticalTime:
    def test_insert_ordering(self):
        j1 = _job("A", release=0.0, window=0.3)
        j2 = _job("B", release=0.0, window=0.1)
        j3 = _job("C", release=0.0, window=0.2)
        sigma = insert_by_critical_time([], j1)
        sigma = insert_by_critical_time(sigma, j2)
        sigma = insert_by_critical_time(sigma, j3)
        assert [j.task.name for j in sigma] == ["B", "C", "A"]

    def test_equal_critical_times_insert_after(self):
        j1 = _job("A", release=0.0, window=0.2)
        j2 = _job("B", release=0.0, window=0.2)
        sigma = insert_by_critical_time([j1], j2)
        assert sigma == [j1, j2]

    def test_does_not_mutate_input(self):
        j1 = _job("A", window=0.2)
        j2 = _job("B", window=0.1)
        original = [j1]
        out = insert_by_critical_time(original, j2)
        assert original == [j1]
        assert out == [j2, j1]


class TestDeadlineSlackBoundary:
    """The shared ``_deadline_slack`` guard, probed at the exact edge.

    Historically ``job_feasible`` and ``schedule_feasible`` duplicated
    the tolerance expression and could scale it differently; the shared
    helper makes the single-job and whole-schedule verdicts identical by
    construction.  These tests pin the boundary semantics: a completion
    *at* the termination (or within the magnitude-scaled slack band
    before it) is infeasible, one safely before it is feasible.
    """

    F_MAX = 1000.0

    def _exact_job(self):
        # window 0.25 s, budget 125 Mcycles at 1000 MHz -> 0.125 s of
        # work; both are dyadic so now + exec reproduces the termination
        # time exactly in floating point.
        return _job("X", release=0.0, window=0.25, mean=125.0)

    def test_slack_value_small_magnitude(self):
        job = self._exact_job()
        assert _deadline_slack(job) == 1e-12  # |termination| <= 1 -> floor

    def test_slack_scales_with_termination_magnitude(self):
        big = _job("B", release=0.0, window=2.0e6, mean=1000.0)
        assert big.termination == 2.0e6
        assert _deadline_slack(big) == pytest.approx(2.0e-6)

    def test_completion_exactly_at_termination_infeasible(self):
        job = self._exact_job()
        now = 0.125
        assert now + job.remaining_budget / self.F_MAX == job.termination
        assert not job_feasible(job, now=now, f_max=self.F_MAX)

    def test_completion_one_ulp_before_termination_infeasible(self):
        # One ULP of headroom is inside the slack band: still rejected.
        job = self._exact_job()
        now = math.nextafter(job.termination, 0.0) - 0.125
        assert now + 0.125 == math.nextafter(job.termination, 0.0)
        assert not job_feasible(job, now=now, f_max=self.F_MAX)

    def test_completion_one_ulp_after_termination_infeasible(self):
        job = self._exact_job()
        now = math.nextafter(job.termination, 1.0) - 0.125
        assert now + 0.125 > job.termination
        assert not job_feasible(job, now=now, f_max=self.F_MAX)

    def test_completion_beyond_slack_band_feasible(self):
        job = self._exact_job()
        now = 0.125 - 1e-9  # completion 1 ns early: clear of the band
        assert job_feasible(job, now=now, f_max=self.F_MAX)

    def test_large_magnitude_band_scales(self):
        # termination 2e6 s -> slack 2e-6 s.  A completion 1e-7 s early
        # is inside the band (infeasible); 1e-4 s early is outside.
        big = _job("B", release=0.0, window=2.0e6, mean=1000.0)
        exec_time = big.remaining_budget / self.F_MAX
        assert not job_feasible(big, now=2.0e6 - exec_time - 1e-7, f_max=self.F_MAX)
        assert job_feasible(big, now=2.0e6 - exec_time - 1e-4, f_max=self.F_MAX)

    @pytest.mark.parametrize("delta", [0.0, 1e-13, -1e-13, 1e-9, -1e-9, 1e-6])
    def test_job_and_schedule_paths_agree(self, delta):
        # The asymmetry fix: the single-job probe and the whole-schedule
        # walk must give the same verdict at every boundary offset.
        job = self._exact_job()
        now = 0.125 - delta
        assert job_feasible(job, now, self.F_MAX) == schedule_feasible(
            [job], now, self.F_MAX
        )

    @pytest.mark.parametrize("delta", [0.0, 1e-13, -1e-13, 1e-9, -1e-9, 1e-6])
    def test_incremental_probe_matches_reference_at_boundary(self, delta):
        job = self._exact_job()
        now = 0.125 - delta
        inc = IncrementalSchedule(now, self.F_MAX)
        ref_ok = schedule_feasible(
            insert_by_critical_time([], job), now, self.F_MAX
        )
        assert (inc.try_insert(job) >= 0) == ref_ok


class TestIncrementalSchedule:
    def test_insert_ordering_matches_reference(self):
        j1 = _job("A", release=0.0, window=0.3, mean=50.0)
        j2 = _job("B", release=0.0, window=0.1, mean=50.0)
        j3 = _job("C", release=0.0, window=0.2, mean=50.0)
        inc = IncrementalSchedule(0.0, 1000.0)
        for j in (j1, j2, j3):
            assert inc.try_insert(j) >= 0
        assert [j.task.name for j in inc.jobs] == ["B", "C", "A"]

    def test_equal_critical_times_insert_after(self):
        j1 = _job("A", release=0.0, window=0.2, mean=50.0)
        j2 = _job("B", release=0.0, window=0.2, mean=50.0)
        inc = IncrementalSchedule(0.0, 1000.0)
        assert inc.try_insert(j1) == 0
        assert inc.try_insert(j2) == 1
        assert [j.task.name for j in inc.jobs] == ["A", "B"]

    def test_failed_probe_leaves_sigma_untouched(self):
        j1 = _job("A", window=0.2, mean=150.0)
        j2 = _job("B", window=0.2, mean=100.0)
        inc = IncrementalSchedule(0.0, 1000.0)
        assert inc.try_insert(j1) == 0
        before = _arrays(inc)
        assert inc.try_insert(j2) == -1  # fails on its own completion
        assert _arrays(inc) == before

    def test_completions_match_predicted_completions(self):
        j1 = _job("A", window=1.0, mean=100.0)
        j2 = _job("B", window=1.0, mean=200.0)
        inc = IncrementalSchedule(0.5, 1000.0)
        inc.try_insert(j1)
        inc.try_insert(j2)
        assert inc.completions() == predicted_completions(inc.jobs, 0.5, 1000.0)

    def test_head_and_len(self):
        inc = IncrementalSchedule(0.0, 1000.0)
        assert inc.head is None and len(inc) == 0
        j = _job("A", window=0.5)
        inc.try_insert(j)
        assert inc.head is j and len(inc) == 1


class TestIncrementalScheduleCachedArrays:
    """The cached per-entry durations and termination thresholds."""

    F_MAX = 1000.0

    def _assert_matches_reference(self, inc, now):
        jobs = inc.jobs
        assert inc._crit == [j.critical_time for j in jobs]
        assert inc._durs == [j.remaining_budget / self.F_MAX for j in jobs]
        assert inc._thrs == [j.termination - _deadline_slack(j) for j in jobs]
        assert inc.completions() == predicted_completions(jobs, now, self.F_MAX)

    def test_rejected_mid_suffix_leaves_arrays_untouched(self):
        inc = IncrementalSchedule(0.0, self.F_MAX)
        assert inc.try_insert(_job("A", window=0.3, mean=100.0)) == 0
        assert inc.try_insert(_job("B", window=0.25, mean=100.0)) == 0
        assert inc.try_insert(_job("C", window=0.9, mean=100.0)) == 2
        before = _arrays(inc)
        # D goes first and fits (0.1 < 0.12), B still fits (0.2 < 0.25),
        # but A is pushed to 0.3 and fails; C is never reached.
        d = _job("D", window=0.12, mean=100.0)
        assert job_feasible(d, 0.0, self.F_MAX)
        assert not schedule_feasible(insert_by_critical_time(inc.jobs, d), 0.0, self.F_MAX)
        assert inc.try_insert(d) == -1
        assert _arrays(inc) == before
        self._assert_matches_reference(inc, 0.0)

    def test_executed_beyond_allocation_clamps_to_zero_duration(self):
        inc = IncrementalSchedule(0.25, self.F_MAX)
        a = _job("A", window=0.9, mean=100.0)
        over = _job("B", window=0.5, mean=100.0)
        over.executed = 150.0  # overran its budget: remaining clamps to 0
        assert inc.try_insert(a) == 0
        assert inc.try_insert(over) == 0
        assert inc._durs[0] == 0.0
        assert inc.completions()[0] == 0.25
        self._assert_matches_reference(inc, 0.25)

    @pytest.mark.parametrize("termination", [-0.5, -3.0, -2.0e6])
    def test_negative_termination(self, termination):
        job = _job("N", window=1.0, mean=10.0)
        job.termination = termination
        inc = IncrementalSchedule(-1.0e7, self.F_MAX)
        ref_ok = schedule_feasible([job], -1.0e7, self.F_MAX)
        assert (inc.try_insert(job) >= 0) == ref_ok
        assert ref_ok
        assert inc._thrs == [termination - _EPS * max(1.0, abs(termination))]
        self._assert_matches_reference(inc, -1.0e7)

    @pytest.mark.parametrize("offset", [1e-7, 1e-6, 2e-6, 3e-6, 1e-4])
    def test_large_magnitude_terminations(self, offset):
        # Slack 2e-6 s at termination 2e6 s: the cached threshold must
        # keep the magnitude-scaled band.
        big = _job("B", release=0.0, window=2.0e6, mean=1000.0)
        now = 2.0e6 - 1.0 - offset
        inc = IncrementalSchedule(now, self.F_MAX)
        ref_ok = schedule_feasible([big], now, self.F_MAX)
        assert (inc.try_insert(big) >= 0) == ref_ok
        if ref_ok:
            self._assert_matches_reference(inc, now)
        else:
            assert _arrays(inc) == ([], [], [], [], [])

    def test_equal_critical_times_fold_in_insertion_order(self):
        inc = IncrementalSchedule(0.0, self.F_MAX)
        jobs = [_job(name, window=0.4, mean=100.0) for name in "ABC"]
        assert [inc.try_insert(j) for j in jobs] == [0, 1, 2]
        # A fourth equal-critical-time job goes last and overflows.
        assert inc.try_insert(_job("D", window=0.4, mean=100.0)) == -1
        # An earlier one goes first and pushes the equal-time suffix.
        assert inc.try_insert(_job("E", window=0.1, mean=50.0)) == 0
        assert [j.task.name for j in inc] == ["E", "A", "B", "C"]
        self._assert_matches_reference(inc, 0.0)
