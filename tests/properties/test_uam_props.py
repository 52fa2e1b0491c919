"""Property-based tests on the UAM model and generators."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arrivals import (
    BurstUAMArrivals,
    PeriodicArrivals,
    PoissonUAMArrivals,
    ScatteredUAMArrivals,
    UAMSpec,
    is_uam_compliant,
    max_count_in_any_window,
    thin_to_uam,
)
from repro.demand import DeterministicDemand
from repro.runtime import UAMComplianceMonitor, ViolationPolicy
from repro.sim import Task, TaskSet
from repro.tuf import StepTUF

specs = st.builds(
    UAMSpec,
    st.integers(min_value=1, max_value=6),
    st.floats(min_value=0.01, max_value=10.0, allow_nan=False),
)
time_lists = st.lists(
    st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
    min_size=0,
    max_size=60,
).map(sorted)


@given(time_lists, specs)
@settings(max_examples=200)
def test_compliance_iff_window_count(times, spec):
    """is_uam_compliant agrees with the sliding-window max count."""
    compliant = is_uam_compliant(times, spec)
    count = max_count_in_any_window(times, spec.window)
    assert compliant == (count <= spec.max_arrivals)


@given(time_lists, specs)
@settings(max_examples=200)
def test_thinning_yields_compliance(times, spec):
    kept = thin_to_uam(times, spec)
    assert is_uam_compliant(kept, spec)
    assert set(kept) <= set(times)
    assert kept == sorted(kept)


@given(time_lists, specs)
@settings(max_examples=150)
def test_thinning_idempotent(times, spec):
    once = thin_to_uam(times, spec)
    assert thin_to_uam(once, spec) == once


@given(time_lists, specs)
@settings(max_examples=150)
def test_tracker_matches_thinning(times, spec):
    """The runtime's online gate keeps exactly the greedy thinned subsequence."""
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


@given(
    st.integers(min_value=1, max_value=5),
    st.floats(min_value=0.05, max_value=2.0),
    st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_generators_respect_their_specs(a, window, seed):
    """Every generator's output complies with its declared envelope."""
    rng = np.random.default_rng(seed)
    spec = UAMSpec(a, window)
    horizon = 20.0 * window
    for gen in (
        BurstUAMArrivals(spec),
        BurstUAMArrivals(spec, randomize=True),
        ScatteredUAMArrivals(spec),
        PoissonUAMArrivals(spec, rate=2.0 * a / window),
    ):
        times = gen.generate(horizon, rng)
        assert is_uam_compliant(times, gen.spec), type(gen).__name__
        assert all(0.0 <= t < horizon for t in times)


@given(
    st.floats(min_value=0.05, max_value=2.0),
    st.floats(min_value=0.0, max_value=50.0),
)
@settings(max_examples=100)
def test_periodic_subsumed_by_uam(period, horizon):
    """The periodic model is the UAM special case <1, P>."""
    times = PeriodicArrivals(period).generate(horizon)
    assert is_uam_compliant(times, UAMSpec(1, period))
    # And by any looser envelope.
    assert is_uam_compliant(times, UAMSpec(2, period))
    assert is_uam_compliant(times, UAMSpec(1, period * 0.5))
