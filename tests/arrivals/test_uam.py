"""Tests for the UAM model (repro.arrivals.uam)."""

import pytest

from repro.arrivals import (
    BurstUAMArrivals,
    UAMError,
    UAMSpec,
    first_violation,
    is_uam_compliant,
    max_count_in_any_window,
    thin_to_uam,
)
from repro.demand import DeterministicDemand
from repro.runtime import UAMComplianceMonitor, ViolationPolicy
from repro.sim import Task, TaskSet
from repro.tuf import StepTUF


class TestUAMSpec:
    def test_basic_fields(self):
        spec = UAMSpec(3, 0.5)
        assert spec.max_arrivals == 3
        assert spec.window == 0.5

    def test_peak_rate(self):
        assert UAMSpec(4, 2.0).peak_rate == pytest.approx(2.0)

    def test_periodic_equivalent(self):
        assert UAMSpec(1, 1.0).is_periodic_equivalent
        assert not UAMSpec(2, 1.0).is_periodic_equivalent

    def test_scaled(self):
        spec = UAMSpec(2, 1.0).scaled(3.0)
        assert spec.window == 3.0
        assert spec.max_arrivals == 2

    def test_rejects_zero_arrivals(self):
        with pytest.raises(UAMError):
            UAMSpec(0, 1.0)

    def test_rejects_nonpositive_window(self):
        with pytest.raises(UAMError):
            UAMSpec(1, 0.0)

    def test_frozen(self):
        with pytest.raises(Exception):
            UAMSpec(1, 1.0).window = 2.0


class TestMaxCountInWindow:
    def test_empty(self):
        assert max_count_in_any_window([], 1.0) == 0

    def test_single(self):
        assert max_count_in_any_window([0.5], 1.0) == 1

    def test_simultaneous(self):
        assert max_count_in_any_window([1.0, 1.0, 1.0], 0.1) == 3

    def test_spread(self):
        assert max_count_in_any_window([0.0, 1.0, 2.0], 1.0) == 1

    def test_boundary_exactly_window_apart(self):
        # Half-open windows: arrivals exactly P apart never share one.
        assert max_count_in_any_window([0.0, 1.0], 1.0) == 1

    def test_cluster(self):
        assert max_count_in_any_window([0.0, 0.1, 0.2, 5.0], 0.25) == 3

    def test_rejects_unsorted(self):
        with pytest.raises(UAMError):
            max_count_in_any_window([1.0, 0.5], 1.0)

    def test_rejects_bad_window(self):
        with pytest.raises(UAMError):
            max_count_in_any_window([0.0], 0.0)

    def test_float_accumulation_tolerance(self):
        # k * 0.1 accumulates ulp noise; gaps a hair under the window
        # still count as compliant.
        times = [k * 0.1 for k in range(100)]
        assert max_count_in_any_window(times, 0.1) == 1


class TestCompliance:
    def test_periodic_complies_with_own_spec(self):
        times = [k * 0.5 for k in range(20)]
        assert is_uam_compliant(times, UAMSpec(1, 0.5))

    def test_periodic_violates_tighter_spec(self):
        times = [k * 0.5 for k in range(20)]
        assert not is_uam_compliant(times, UAMSpec(1, 0.6))

    def test_burst_exactly_a(self):
        times = [0.0, 0.0, 1.0, 1.0]
        assert is_uam_compliant(times, UAMSpec(2, 1.0))

    def test_burst_over_a(self):
        times = [0.0, 0.0, 0.0]
        assert not is_uam_compliant(times, UAMSpec(2, 1.0))

    def test_first_violation_index(self):
        times = [0.0, 0.1, 0.2]
        assert first_violation(times, UAMSpec(2, 1.0)) == 2

    def test_first_violation_none(self):
        assert first_violation([0.0, 2.0], UAMSpec(1, 1.0)) is None

    def test_empty_compliant(self):
        assert is_uam_compliant([], UAMSpec(1, 1.0))


class TestThinning:
    def test_no_drop_when_compliant(self):
        times = [0.0, 1.0, 2.0]
        assert thin_to_uam(times, UAMSpec(1, 1.0)) == times

    def test_drops_overflow(self):
        times = [0.0, 0.1, 0.2, 0.3]
        kept = thin_to_uam(times, UAMSpec(2, 1.0))
        assert kept == [0.0, 0.1]

    def test_result_is_compliant(self):
        times = [0.0, 0.05, 0.1, 0.5, 0.6, 0.7, 1.2, 1.3]
        spec = UAMSpec(2, 0.5)
        assert is_uam_compliant(thin_to_uam(times, spec), spec)

    def test_keeps_earliest(self):
        kept = thin_to_uam([0.0, 0.4, 1.0], UAMSpec(1, 1.0))
        assert kept == [0.0, 1.0]


def _online_gate(a, window):
    """``admit(t)`` through the runtime's shed-policy UAM monitor."""
    spec = UAMSpec(a, window)
    task = Task(
        "t",
        StepTUF(height=1.0, deadline=window),
        DeterministicDemand(1.0),
        spec,
        arrivals=BurstUAMArrivals(spec) if a > 1 else None,
    )
    monitor = UAMComplianceMonitor(TaskSet([task]), ViolationPolicy.SHED)
    return lambda t: monitor.check(task, t) is None


class TestTracker:
    """The online gate admits exactly what the window rule allows."""

    def test_admits_within_budget(self):
        admit = _online_gate(2, 1.0)
        assert admit(0.0)
        assert admit(0.5)
        assert not admit(0.9)

    def test_budget_replenishes(self):
        admit = _online_gate(1, 1.0)
        assert admit(0.0)
        assert not admit(0.5)
        assert admit(1.0)

    def test_simultaneous_arrivals(self):
        admit = _online_gate(3, 1.0)
        assert [admit(0.0) for _ in range(4)] == [True, True, True, False]
