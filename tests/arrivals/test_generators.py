"""Tests for arrival generators (repro.arrivals.generators)."""

import numpy as np
import pytest

from repro.arrivals import (
    BurstUAMArrivals,
    JitteredPeriodicArrivals,
    PeriodicArrivals,
    PoissonUAMArrivals,
    ScatteredUAMArrivals,
    SporadicArrivals,
    UAMError,
    UAMSpec,
    is_uam_compliant,
)


@pytest.fixture
def rng():
    return np.random.default_rng(7)


class TestPeriodic:
    def test_count(self):
        assert len(PeriodicArrivals(0.5).generate(10.0)) == 20

    def test_times(self):
        assert PeriodicArrivals(1.0).generate(3.5) == [0.0, 1.0, 2.0, 3.0]

    def test_phase(self):
        assert PeriodicArrivals(1.0, phase=0.25).generate(2.0) == [0.25, 1.25]

    def test_spec_is_uam_1P(self):
        gen = PeriodicArrivals(0.5)
        assert gen.spec == UAMSpec(1, 0.5)

    def test_compliance(self, rng):
        gen = PeriodicArrivals(0.3)
        gen.generate_checked(5.0, rng)

    def test_empty_when_horizon_before_phase(self):
        assert PeriodicArrivals(1.0, phase=5.0).generate(4.0) == []

    def test_rejects_bad_period(self):
        with pytest.raises(UAMError):
            PeriodicArrivals(0.0)


class TestJitteredPeriodic:
    def test_compliance(self, rng):
        gen = JitteredPeriodicArrivals(1.0, jitter=0.3)
        times = gen.generate_checked(50.0, rng)
        assert is_uam_compliant(times, UAMSpec(1, 0.7))

    def test_spec_tightened_by_jitter(self):
        gen = JitteredPeriodicArrivals(1.0, jitter=0.3)
        assert gen.spec.window == pytest.approx(0.7)

    def test_zero_jitter_is_periodic(self, rng):
        gen = JitteredPeriodicArrivals(1.0, jitter=0.0)
        assert gen.generate(3.0, rng) == [0.0, 1.0, 2.0]

    def test_rejects_jitter_ge_period(self):
        with pytest.raises(UAMError):
            JitteredPeriodicArrivals(1.0, jitter=1.0)


class TestSporadic:
    def test_min_separation_holds(self, rng):
        gen = SporadicArrivals(min_interarrival=0.2, mean_interarrival=0.4)
        times = gen.generate_checked(50.0, rng)
        gaps = [b - a for a, b in zip(times, times[1:])]
        assert min(gaps) >= 0.2 - 1e-12

    def test_mean_rate_roughly_matches(self, rng):
        gen = SporadicArrivals(min_interarrival=0.1, mean_interarrival=0.5)
        times = gen.generate(1000.0, rng)
        mean_gap = (times[-1] - times[0]) / (len(times) - 1)
        assert mean_gap == pytest.approx(0.5, rel=0.15)

    def test_rejects_mean_below_min(self):
        with pytest.raises(UAMError):
            SporadicArrivals(0.5, 0.4)


class TestBurst:
    def test_full_bursts(self, rng):
        gen = BurstUAMArrivals(UAMSpec(3, 1.0))
        times = gen.generate(2.5, rng)
        assert times == [0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 2.0, 2.0, 2.0]

    def test_compliance(self, rng):
        gen = BurstUAMArrivals(UAMSpec(4, 0.25))
        gen.generate_checked(10.0, rng)

    def test_randomized_sizes_bounded(self, rng):
        gen = BurstUAMArrivals(UAMSpec(3, 1.0), randomize=True)
        times = gen.generate(100.0, rng)
        from collections import Counter

        sizes = Counter(times).values()
        assert max(sizes) <= 3 and min(sizes) >= 1

    def test_phase(self, rng):
        gen = BurstUAMArrivals(UAMSpec(2, 1.0), phase=0.5)
        assert gen.generate(1.6, rng) == [0.5, 0.5, 1.5, 1.5]


class TestScattered:
    def test_compliance(self, rng):
        gen = ScatteredUAMArrivals(UAMSpec(3, 0.2))
        gen.generate_checked(20.0, rng)

    def test_not_synchronised(self, rng):
        times = ScatteredUAMArrivals(UAMSpec(3, 1.0)).generate(50.0, rng)
        # Offsets within windows vary (not all at window starts).
        offsets = {round(t % 1.0, 6) for t in times}
        assert len(offsets) > 10

    def test_rejects_bad_spread(self):
        with pytest.raises(UAMError):
            ScatteredUAMArrivals(UAMSpec(1, 1.0), spread=0.0)


class TestPoissonUAM:
    def test_compliance(self, rng):
        gen = PoissonUAMArrivals(UAMSpec(2, 0.5), rate=10.0)
        gen.generate_checked(20.0, rng)

    def test_rate_bounded_by_envelope(self, rng):
        gen = PoissonUAMArrivals(UAMSpec(2, 0.5), rate=100.0)
        times = gen.generate(100.0, rng)
        # Cannot exceed a/P = 4 arrivals per second on average.
        assert len(times) <= 4 * 100.0 + 2

    def test_low_rate_barely_thinned(self, rng):
        spec = UAMSpec(5, 1.0)
        gen = PoissonUAMArrivals(spec, rate=0.5)
        times = gen.generate(2000.0, rng)
        assert len(times) == pytest.approx(1000, rel=0.15)

    def test_rejects_bad_rate(self):
        with pytest.raises(UAMError):
            PoissonUAMArrivals(UAMSpec(1, 1.0), rate=0.0)


class TestGenerateChecked:
    def test_catches_lying_generator(self, rng):
        class Liar(PeriodicArrivals):
            def generate(self, horizon, rng=None):
                return [0.0, 0.0]  # violates <1, P>

        with pytest.raises(UAMError):
            Liar(1.0).generate_checked(1.0, rng)


class TestMMPP:
    def test_compliance(self, rng):
        from repro.arrivals import MMPPUAMArrivals

        gen = MMPPUAMArrivals(UAMSpec(3, 0.2), burst_rate=60.0,
                              mean_burst_duration=0.5, mean_quiet_duration=0.5)
        gen.generate_checked(20.0, rng)

    def test_quiet_state_produces_gaps(self, rng):
        from repro.arrivals import MMPPUAMArrivals

        gen = MMPPUAMArrivals(UAMSpec(5, 0.1), burst_rate=200.0, quiet_rate=0.0,
                              mean_burst_duration=0.2, mean_quiet_duration=1.0)
        times = gen.generate(60.0, rng)
        gaps = [b - a for a, b in zip(times, times[1:])]
        # On/off structure: some long silences well beyond the window.
        assert max(gaps) > 0.5

    def test_burstier_than_poisson(self, rng):
        from repro.arrivals import MMPPUAMArrivals, PoissonUAMArrivals
        import numpy as np

        spec = UAMSpec(5, 0.1)
        mmpp = MMPPUAMArrivals(spec, burst_rate=100.0, quiet_rate=2.0,
                               mean_burst_duration=0.3, mean_quiet_duration=0.7)
        pois = PoissonUAMArrivals(spec, rate=31.4)  # similar mean rate
        t_m = mmpp.generate(200.0, np.random.default_rng(1))
        t_p = pois.generate(200.0, np.random.default_rng(1))

        def cv_of_counts(times, bin_width=0.5):
            counts, _ = np.histogram(times, bins=np.arange(0.0, 200.0, bin_width))
            return np.std(counts) / max(np.mean(counts), 1e-9)

        assert cv_of_counts(t_m) > cv_of_counts(t_p)

    def test_rejects_bad_rates(self):
        from repro.arrivals import MMPPUAMArrivals

        with pytest.raises(UAMError):
            MMPPUAMArrivals(UAMSpec(1, 1.0), burst_rate=0.0)
        with pytest.raises(UAMError):
            MMPPUAMArrivals(UAMSpec(1, 1.0), burst_rate=1.0, quiet_rate=-1.0)
        with pytest.raises(UAMError):
            MMPPUAMArrivals(UAMSpec(1, 1.0), burst_rate=1.0, mean_burst_duration=0.0)
