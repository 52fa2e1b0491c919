"""Sliding-window boundary semantics of the UAM checks.

The half-open window convention makes one instant load-bearing: an
arrival exactly at the trailing edge ``t = t_anchor + P`` opens a *new*
window and never counts against the old one.  These tests pin that edge
(and the float-accumulation tolerance around it) for every consumer of
:func:`repro.arrivals.uam.effective_window`, and property-test the
online/offline check agreement with Hypothesis.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arrivals import (
    BurstUAMArrivals,
    UAMSpec,
    effective_window,
    first_violation,
    is_uam_compliant,
    max_count_in_any_window,
    next_admissible_time,
    thin_to_uam,
)
from repro.demand import DeterministicDemand
from repro.runtime import UAMComplianceMonitor, ViolationPolicy
from repro.sim import Task, TaskSet
from repro.tuf import StepTUF

specs = st.builds(
    UAMSpec,
    max_arrivals=st.integers(min_value=1, max_value=5),
    window=st.floats(min_value=1e-3, max_value=100.0,
                     allow_nan=False, allow_infinity=False),
)

arrival_lists = st.lists(
    st.floats(min_value=0.0, max_value=1000.0,
              allow_nan=False, allow_infinity=False),
    max_size=60,
).map(sorted)


class TestTrailingEdge:
    def test_arrival_exactly_at_t_prev_plus_p_is_compliant(self):
        spec = UAMSpec(1, 1.0)
        assert is_uam_compliant([0.0, 1.0, 2.0, 3.0], spec)

    def test_arrival_strictly_inside_window_violates(self):
        spec = UAMSpec(1, 1.0)
        assert first_violation([0.0, 0.999999], spec) == 1

    def test_trailing_edge_for_a_greater_than_one(self):
        spec = UAMSpec(2, 1.0)
        # Third arrival exactly at t_1 + P: legal (the window is half-open).
        assert is_uam_compliant([0.0, 0.5, 1.0], spec)
        # Third arrival a hair before t_1 + P: the window still holds 2.
        assert not is_uam_compliant([0.0, 0.5, 1.0 - 1e-6], spec)

    def test_window_count_at_edges(self):
        # [t, t+P) half-open: the arrival at P is outside the window at 0.
        assert max_count_in_any_window([0.0, 1.0], 1.0) == 1
        assert max_count_in_any_window([0.0, 1.0 - 1e-6], 1.0) == 2

    def test_float_accumulation_undershoot_is_tolerated(self):
        # k * 0.1 accumulated in floats undershoots exact multiples by a
        # few ulps; the relative tolerance must absorb that.
        times, t = [], 0.0
        for _ in range(50):
            times.append(t)
            t += 0.1
        assert is_uam_compliant(times, UAMSpec(1, 0.1))

    def test_effective_window_shrinks_relatively(self):
        for window in (1e-3, 1.0, 1e6):
            assert 0.0 < window - effective_window(window) < 1e-6 * max(1.0, window)


class TestNextAdmissibleTime:
    def test_free_window_admits_now(self):
        spec = UAMSpec(2, 1.0)
        assert next_admissible_time([], spec, 5.0) == 5.0
        assert next_admissible_time([4.9], spec, 5.0) == 5.0

    def test_full_window_waits_for_anchor_plus_p(self):
        spec = UAMSpec(2, 1.0)
        assert next_admissible_time([4.5, 4.9], spec, 5.0) == 5.5

    def test_exactly_at_edge_admits_now(self):
        spec = UAMSpec(1, 1.0)
        assert next_admissible_time([4.0], spec, 5.0) == 5.0

    @given(arrival_lists, specs, st.floats(min_value=0.0, max_value=2000.0))
    @settings(max_examples=300)
    def test_admitting_at_returned_instant_is_compliant(self, times, spec, t):
        kept = thin_to_uam(times, spec)
        recent = [x for x in kept if x <= t]
        if recent and t < recent[-1]:
            return  # next_admissible_time requires t at or after the last arrival
        grant = next_admissible_time(recent, spec, t)
        assert grant >= t
        assert is_uam_compliant(recent + [grant], spec)

    @given(arrival_lists, specs, st.floats(min_value=0.0, max_value=2000.0))
    @settings(max_examples=200)
    def test_grant_is_earliest(self, times, spec, t):
        """Nothing strictly between t and the grant is compliant."""
        recent = thin_to_uam(times, spec)
        if recent and t < recent[-1]:
            return
        grant = next_admissible_time(recent, spec, t)
        if grant > t:
            probe = (t + grant) / 2.0
            if probe < grant - 1e-9 * max(1.0, abs(grant)):
                assert not is_uam_compliant(recent + [probe], spec)


class TestThinningBoundary:
    """Edge cases of the greedy admitter every registry shape funnels
    its raw stream through."""

    def test_empty_stream_stays_empty(self):
        assert thin_to_uam([], UAMSpec(3, 1.0)) == []

    def test_single_arrival_passes(self):
        assert thin_to_uam([0.7], UAMSpec(1, 1.0)) == [0.7]

    def test_compliant_stream_passes_through_identically(self):
        times = [0.0, 0.4, 1.0, 1.4, 2.0, 2.4]
        assert thin_to_uam(times, UAMSpec(2, 1.0)) == times

    def test_exact_a_P_edge_is_admitted(self):
        # The a+1'th arrival exactly P after the anchor opens a fresh
        # half-open window — it must be kept, not dropped.
        spec = UAMSpec(2, 1.0)
        assert thin_to_uam([0.0, 0.5, 1.0], spec) == [0.0, 0.5, 1.0]

    def test_hair_inside_the_edge_is_dropped(self):
        spec = UAMSpec(2, 1.0)
        kept = thin_to_uam([0.0, 0.5, 1.0 - 1e-6], spec)
        assert kept == [0.0, 0.5]

    def test_saturating_burst_keeps_first_a(self):
        spec = UAMSpec(3, 1.0)
        times = [0.0] * 5  # simultaneous burst of 5 into an a=3 budget
        assert thin_to_uam(times, spec) == [0.0, 0.0, 0.0]

    def test_drop_frees_no_budget(self):
        # A dropped arrival must not count against later admissions:
        # after dropping 0.9 (window [0, 1) already holds a=1's worth),
        # the arrival at exactly 1.0 is admissible.
        spec = UAMSpec(1, 1.0)
        assert thin_to_uam([0.0, 0.9, 1.0], spec) == [0.0, 1.0]

    def test_float_accumulation_at_the_edge_is_tolerated(self):
        # k * 0.1 undershoots exact multiples by ulps; the effective
        # window slack must keep the periodic stream untouched.
        times, t = [], 0.0
        for _ in range(50):
            times.append(t)
            t += 0.1
        assert thin_to_uam(times, UAMSpec(1, 0.1)) == times


class TestOnlineOfflineAgreement:
    @given(arrival_lists, specs)
    @settings(max_examples=300)
    def test_thinning_matches_greedy_tracker(self, times, spec):
        """thin_to_uam's keep rule IS the runtime monitor's shed rule."""
        task = Task(
            "t",
            StepTUF(height=1.0, deadline=spec.window),
            DeterministicDemand(1.0),
            spec,
            arrivals=BurstUAMArrivals(spec) if spec.max_arrivals > 1 else None,
        )
        monitor = UAMComplianceMonitor(TaskSet([task]), ViolationPolicy.SHED)
        admitted = [t for t in times if monitor.check(task, t) is None]
        assert admitted == thin_to_uam(times, spec)

    @given(arrival_lists, specs)
    @settings(max_examples=300)
    def test_thinned_sequences_are_compliant(self, times, spec):
        kept = thin_to_uam(times, spec)
        assert is_uam_compliant(kept, spec)
        assert max_count_in_any_window(kept, spec.window) <= spec.max_arrivals

    @given(arrival_lists, specs)
    @settings(max_examples=300)
    def test_compliant_sequences_pass_untouched(self, times, spec):
        kept = thin_to_uam(times, spec)
        assert thin_to_uam(kept, spec) == kept
