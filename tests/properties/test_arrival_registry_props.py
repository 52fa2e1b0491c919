"""Property-based tests on the arrival registry.

Three contracts hold for *every* spec-constructible shape, whatever
parameters the strategies draw:

* **Compliance** — ``generate_checked`` output satisfies the declared
  ``⟨a, P⟩`` envelope (the assurances' precondition).
* **Seed determinism** — the same seed reproduces the stream bit for
  bit (the campaign/cache identity precondition).
* **Config round-trip** — ``to_config`` → JSON → ``generator_from_config``
  rebuilds a generator with a bit-identical stream.
"""

import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arrivals import (
    UAMSpec,
    create_arrival_generator,
    generator_config,
    generator_from_config,
    is_uam_compliant,
    workload_shape_names,
)

shape_names = st.sampled_from(sorted(workload_shape_names()))
specs = st.builds(
    UAMSpec,
    st.integers(min_value=1, max_value=6),
    st.floats(min_value=0.01, max_value=2.0, allow_nan=False),
)
seeds = st.integers(min_value=0, max_value=2**32 - 1)


@given(shape_names, specs, seeds)
@settings(max_examples=150, deadline=None)
def test_every_workload_shape_is_compliant(name, spec, seed):
    gen = create_arrival_generator(name, spec=spec)
    times = gen.generate_checked(3.0, np.random.default_rng(seed))
    assert is_uam_compliant(times, gen.spec)
    assert times == sorted(times)
    assert all(t >= 0.0 for t in times)


@given(shape_names, specs, seeds)
@settings(max_examples=100, deadline=None)
def test_every_workload_shape_is_seed_deterministic(name, spec, seed):
    gen = create_arrival_generator(name, spec=spec)
    a = gen.generate(3.0, np.random.default_rng(seed))
    b = gen.generate(3.0, np.random.default_rng(seed))
    assert a == b


@given(shape_names, specs, seeds)
@settings(max_examples=100, deadline=None)
def test_config_json_round_trip_preserves_streams(name, spec, seed):
    gen = create_arrival_generator(name, spec=spec)
    payload = json.dumps(generator_config(gen))
    rebuilt = generator_from_config(json.loads(payload))
    assert rebuilt.to_config() == gen.to_config()
    assert rebuilt.generate(3.0, np.random.default_rng(seed)) == \
        gen.generate(3.0, np.random.default_rng(seed))
