"""Tests for the internet-scale arrival shapes (NHPP diurnal, flash
crowd, Pareto heavy tails, looped traces) and the unseeded-rng warning.

Every shape declares a UAM envelope and funnels its raw stream through
``thin_to_uam`` — compliance is the contract the schedulers' assurances
rest on, so it is asserted for each shape alongside the shape-specific
semantics (diurnal intensity, burst segments, tail behaviour, tiling).
"""

import math
import warnings

import numpy as np
import pytest

from repro.arrivals import (
    FlashCrowdArrivals,
    NHPPArrivals,
    ParetoArrivals,
    UAMError,
    UAMSpec,
    UnseededRNGWarning,
    is_uam_compliant,
)


SPEC = UAMSpec(3, 0.1)


@pytest.fixture
def rng():
    return np.random.default_rng(7)


class TestNHPPDiurnal:
    def _gen(self, **kw):
        defaults = dict(base_rate=10.0, peak_rate=120.0, cycle=0.8)
        defaults.update(kw)
        return NHPPArrivals(SPEC, **defaults)

    def test_compliance(self, rng):
        times = self._gen().generate_checked(5.0, rng)
        assert is_uam_compliant(times, SPEC)

    def test_deterministic_under_seed(self):
        a = self._gen().generate(5.0, np.random.default_rng(3))
        b = self._gen().generate(5.0, np.random.default_rng(3))
        assert a == b

    def test_rate_peaks_at_peak_frac(self):
        gen = self._gen(peak_frac=0.25)
        assert gen.rate(0.25 * gen.cycle) == pytest.approx(gen.peak_rate)
        # Diametrically opposite point sits near the base rate.
        trough = gen.rate((0.25 + 0.5) * gen.cycle)
        assert trough < gen.base_rate + 0.01 * (gen.peak_rate - gen.base_rate)

    def test_rate_is_cycle_periodic(self):
        gen = self._gen()
        for t in (0.0, 0.123, 0.456):
            assert gen.rate(t) == pytest.approx(gen.rate(t + gen.cycle))

    def test_peak_concentrates_arrivals(self):
        # With a sharp peak and near-zero base, arrivals cluster around
        # the crest of each cycle.
        gen = NHPPArrivals(UAMSpec(50, 0.01), base_rate=0.0, peak_rate=200.0,
                           cycle=1.0, peak_frac=0.5, peak_width=0.05)
        times = gen.generate(20.0, np.random.default_rng(11))
        assert times, "expected arrivals at the diurnal crests"
        assert all(abs((t % 1.0) - 0.5) < 0.3 for t in times)

    def test_rejects_base_above_peak(self):
        with pytest.raises(UAMError):
            NHPPArrivals(SPEC, base_rate=10.0, peak_rate=5.0, cycle=1.0)

    def test_rejects_bad_cycle(self):
        with pytest.raises(UAMError):
            NHPPArrivals(SPEC, base_rate=1.0, peak_rate=2.0, cycle=0.0)


class TestFlashCrowd:
    def _gen(self, **kw):
        defaults = dict(base_rate=5.0, burst_factor=8.0,
                        burst_duration=0.1, mean_time_between=0.5)
        defaults.update(kw)
        return FlashCrowdArrivals(SPEC, **defaults)

    def test_compliance(self, rng):
        times = self._gen().generate_checked(5.0, rng)
        assert is_uam_compliant(times, SPEC)

    def test_deterministic_under_seed(self):
        a = self._gen().generate(5.0, np.random.default_rng(3))
        b = self._gen().generate(5.0, np.random.default_rng(3))
        assert a == b

    def test_bursts_raise_arrival_count(self):
        # Burstier configuration admits at least as many jobs into a
        # generous envelope as the pure baseline.
        loose = UAMSpec(1000, 1e-6)
        quiet = FlashCrowdArrivals(loose, base_rate=5.0, burst_factor=1.0,
                                   burst_duration=0.5, mean_time_between=0.5)
        crowd = FlashCrowdArrivals(loose, base_rate=5.0, burst_factor=20.0,
                                   burst_duration=0.5, mean_time_between=0.5)
        n_quiet = len(quiet.generate(50.0, np.random.default_rng(1)))
        n_crowd = len(crowd.generate(50.0, np.random.default_rng(1)))
        assert n_crowd > n_quiet

    def test_rejects_sub_one_burst_factor(self):
        with pytest.raises(UAMError):
            self._gen(burst_factor=0.5)


class TestPareto:
    def test_compliance(self, rng):
        gen = ParetoArrivals(SPEC, alpha=1.5, x_min=0.01)
        assert is_uam_compliant(gen.generate_checked(5.0, rng), SPEC)

    def test_gaps_respect_x_min(self):
        gen = ParetoArrivals(UAMSpec(1000, 1e-9), alpha=1.5, x_min=0.05)
        times = gen.generate(50.0, np.random.default_rng(2))
        gaps = [b - a for a, b in zip(times, times[1:])]
        assert min(gaps) >= 0.05

    def test_mean_gap_tracks_alpha(self):
        # E[gap] = x_min * alpha / (alpha - 1); alpha=3 -> 1.5 * x_min.
        gen = ParetoArrivals(UAMSpec(10**6, 1e-9), alpha=3.0, x_min=0.01)
        times = gen.generate(1000.0, np.random.default_rng(4))
        mean_gap = times[-1] / len(times)
        assert math.isclose(mean_gap, 0.015, rel_tol=0.1)

    def test_rejects_bad_params(self):
        with pytest.raises(UAMError):
            ParetoArrivals(SPEC, alpha=0.0)
        with pytest.raises(UAMError):
            ParetoArrivals(SPEC, x_min=0.0)


class TestUnseededRNGWarning:
    def test_stochastic_generate_without_rng_warns(self):
        gen = ParetoArrivals(SPEC, alpha=1.5, x_min=0.01)
        with pytest.warns(UnseededRNGWarning):
            gen.generate(1.0)

    def test_seeded_generate_does_not_warn(self):
        gen = ParetoArrivals(SPEC, alpha=1.5, x_min=0.01)
        with warnings.catch_warnings():
            warnings.simplefilter("error", UnseededRNGWarning)
            gen.generate(1.0, np.random.default_rng(0))

    def test_warning_attributes_to_caller_from_generate(self):
        # The warning must name *this* file, not generators.py.
        gen = ParetoArrivals(SPEC, alpha=1.5, x_min=0.01)
        with pytest.warns(UnseededRNGWarning) as record:
            gen.generate(1.0)
        assert record[0].filename == __file__

    def test_warning_attributes_to_caller_from_generate_checked(self):
        # generate_checked adds an in-package frame on top of generate;
        # the dynamic stacklevel must skip it too.
        gen = ParetoArrivals(SPEC, alpha=1.5, x_min=0.01)
        with pytest.warns(UnseededRNGWarning) as record:
            gen.generate_checked(1.0)
        assert record[0].filename == __file__

    def test_warning_attributes_to_caller_via_registry(self):
        # Generators built through the registry warn at the same
        # external frame as directly constructed ones.
        from repro.arrivals import create_arrival_generator

        gen = create_arrival_generator(
            "pareto", a=SPEC.max_arrivals, window=SPEC.window,
            alpha=1.5, x_min=0.01,
        )
        with pytest.warns(UnseededRNGWarning) as record:
            gen.generate_checked(1.0)
        assert record[0].filename == __file__

    def test_materialize_without_rng_warns(self):
        from repro.demand import NormalDemand
        from repro.sim.task import Task, TaskSet
        from repro.sim.workload import materialize
        from repro.tuf import StepTUF

        task = Task("T0", StepTUF(10.0, 0.1), NormalDemand(1.0, 0.01),
                    UAMSpec(1, 0.1))
        with pytest.warns(UnseededRNGWarning):
            materialize(TaskSet([task]), 0.5)

    def test_materialize_with_rng_does_not_warn(self):
        from repro.demand import NormalDemand
        from repro.sim.task import Task, TaskSet
        from repro.sim.workload import materialize
        from repro.tuf import StepTUF

        task = Task("T0", StepTUF(10.0, 0.1), NormalDemand(1.0, 0.01),
                    UAMSpec(1, 0.1))
        with warnings.catch_warnings():
            warnings.simplefilter("error", UnseededRNGWarning)
            materialize(TaskSet([task]), 0.5, np.random.default_rng(0))
