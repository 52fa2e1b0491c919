"""Tests for the arrival registry (repro.arrivals.registry).

The load-bearing contracts: legacy workload modes construct
byte-identical generators to the pre-registry hard-coded calls (golden
traces depend on it), and ``to_config`` round-trips through JSON to a
generator with a bit-identical stream (campaign/cache identity depends
on it).
"""

import json

import numpy as np
import pytest

from repro.arrivals import (
    BurstUAMArrivals,
    PeriodicArrivals,
    PoissonUAMArrivals,
    ScatteredUAMArrivals,
    UAMError,
    UAMSpec,
    create_arrival_generator,
    generator_config,
    generator_from_config,
    is_uam_compliant,
    register_arrival_generator,
    workload_shape_names,
)


SPEC = UAMSpec(3, 0.1)


class TestListing:
    def test_all_shapes_registered(self):
        names = workload_shape_names()
        for expected in ("periodic", "jittered", "sporadic", "burst",
                         "scattered", "poisson", "mmpp", "nhpp-diurnal",
                         "flash-crowd", "pareto"):
            assert expected in names

    def test_listing_is_sorted(self):
        assert workload_shape_names() == sorted(workload_shape_names())

    def test_legacy_modes_are_workload_shapes(self):
        shapes = workload_shape_names()
        for mode in ("periodic", "burst", "scattered", "poisson"):
            assert mode in shapes


class TestCreate:
    def test_unknown_name_raises(self):
        with pytest.raises(UAMError, match="unknown arrival generator"):
            create_arrival_generator("no-such-shape", spec=SPEC)

    def test_spec_and_scalars_conflict(self):
        with pytest.raises(UAMError, match="not both"):
            create_arrival_generator("burst", spec=SPEC, a=3, window=0.1)

    def test_scalar_pair_builds_spec(self):
        gen = create_arrival_generator("burst", a=3, window=0.1)
        assert gen.spec == SPEC

    def test_spec_required_shapes_reject_none(self):
        with pytest.raises(UAMError, match="needs a UAM spec"):
            create_arrival_generator("burst")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_arrival_generator("periodic", lambda spec: None)

    def test_pareto_default_scale_needs_alpha_above_one(self):
        with pytest.raises(UAMError, match="alpha > 1"):
            create_arrival_generator("pareto", spec=SPEC, alpha=0.9)


class TestLegacyEquivalence:
    """The spec-relative factories reproduce the synthesiser's historical
    hard-coded constructor calls bit for bit."""

    def _stream(self, gen, seed=123, horizon=2.0):
        return gen.generate(horizon, np.random.default_rng(seed))

    def test_periodic(self):
        assert self._stream(create_arrival_generator("periodic", spec=UAMSpec(1, 0.1))) \
            == self._stream(PeriodicArrivals(0.1))

    def test_burst(self):
        assert self._stream(create_arrival_generator("burst", spec=SPEC)) \
            == self._stream(BurstUAMArrivals(SPEC))

    def test_scattered(self):
        assert self._stream(create_arrival_generator("scattered", spec=SPEC)) \
            == self._stream(ScatteredUAMArrivals(SPEC))

    def test_poisson_rate_matches_historical_expression(self):
        gen = create_arrival_generator("poisson", spec=SPEC)
        legacy = PoissonUAMArrivals(SPEC, rate=2.0 * SPEC.max_arrivals / SPEC.window)
        assert gen.rate == legacy.rate  # exact, not approx: golden traces pin it
        assert self._stream(gen) == self._stream(legacy)


class TestConfigRoundTrip:
    @pytest.mark.parametrize("name", [
        "periodic", "jittered", "sporadic", "burst", "scattered",
        "poisson", "mmpp", "nhpp-diurnal", "flash-crowd", "pareto",
    ])
    def test_json_round_trip_is_bit_identical(self, name):
        gen = create_arrival_generator(name, spec=SPEC)
        config = generator_config(gen)
        assert config["name"] == name
        rebuilt = generator_from_config(json.loads(json.dumps(config)))
        a = gen.generate(3.0, np.random.default_rng(99))
        b = rebuilt.generate(3.0, np.random.default_rng(99))
        assert a == b
        assert rebuilt.to_config() == config

    def test_config_requires_name(self):
        with pytest.raises(UAMError, match="name"):
            generator_from_config({"a": 3, "window": 0.1})

    def test_param_override_reaches_generator(self):
        gen = create_arrival_generator("nhpp-diurnal", spec=SPEC, peak_frac=0.25)
        assert gen.peak_frac == 0.25


class TestCompliance:
    @pytest.mark.parametrize("name", sorted(set(workload_shape_names())))
    def test_every_workload_shape_generates_compliant_streams(self, name):
        gen = create_arrival_generator(name, spec=SPEC)
        times = gen.generate_checked(4.0, np.random.default_rng(5))
        assert is_uam_compliant(times, gen.spec)
