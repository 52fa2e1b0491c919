"""``offlineComputing``'s UER-optimal frequency never sits below the
energy-optimal one.

Below the ladder level ``f_e`` that minimises energy per cycle, a
slower level costs more energy per cycle and (a TUF being
non-increasing) finishes no earlier, so its UER cannot beat
``f_e``'s, and the tie-break prefers the lower energy per cycle.  So
``f°_i >= f_e`` for every task, and a frequency floor at ``f_e`` on
top of EUA*'s ``f°`` bound (Algorithm 2, line 11) never binds.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arrivals import UAMSpec
from repro.core import offline_computing
from repro.cpu import EnergyModel, FrequencyScale, energy_optimal_frequency
from repro.demand import NormalDemand
from repro.sim import Task, TaskSet
from repro.tuf import (
    ExponentialDecayTUF,
    LinearTUF,
    MultiStepTUF,
    QuadraticDecayTUF,
    StepTUF,
)

# Zero or a comfortably-normal positive coefficient (subnormal floats
# underflow to 0 when multiplied by f, which is vacuous).
coeffs = st.one_of(st.just(0.0), st.floats(min_value=1e-9, max_value=10.0))


@st.composite
def scales(draw):
    kind = draw(st.sampled_from(["powernow_k6", "uniform", "levels"]))
    if kind == "powernow_k6":
        return FrequencyScale.powernow_k6()
    if kind == "uniform":
        f_min = draw(st.floats(min_value=10.0, max_value=500.0))
        span = draw(st.floats(min_value=1.0, max_value=2000.0))
        return FrequencyScale.uniform(f_min, f_min + span, draw(st.integers(2, 12)))
    return FrequencyScale(draw(st.lists(
        st.floats(min_value=1.0, max_value=1e4), min_size=1, max_size=10, unique=True)))


@st.composite
def models(draw, f_max):
    kind = draw(st.sampled_from(["E1", "E2", "E3", "coeffs"]))
    if kind == "E1":
        return EnergyModel.e1()
    if kind == "E2":
        return EnergyModel.e2(f_max)
    if kind == "E3":
        return EnergyModel.e3(f_max)
    s3, s2, s1, s0 = (draw(coeffs) for _ in range(4))
    if s3 == s2 == s1 == s0 == 0.0:
        s3 = 1.0
    return EnergyModel(s3, s2, s1, s0)


@st.composite
def tasks(draw, i):
    window = draw(st.floats(min_value=0.01, max_value=2.0))
    umax = draw(st.floats(min_value=0.5, max_value=100.0))
    shape = draw(st.sampled_from(["step", "linear", "quadratic", "exponential", "multistep"]))
    # nu = 1 puts a decaying TUF's critical time at the release, which
    # Task rejects (Theorem 1 divides by it).
    nu = draw(st.floats(min_value=0.05, max_value=1.0, exclude_max=True))
    if shape == "step":
        tuf, nu = StepTUF(umax, window), 1.0
    elif shape == "linear":
        tuf = LinearTUF(umax, window)
    elif shape == "quadratic":
        tuf = QuadraticDecayTUF(umax, window)
    elif shape == "exponential":
        tau = draw(st.floats(min_value=0.01, max_value=2.0)) * window
        tuf = ExponentialDecayTUF(umax, tau, window)
    else:
        tuf, nu = MultiStepTUF([(0.5 * window, umax), (window, 0.5 * umax)]), 0.5
    mean = draw(st.floats(min_value=0.01, max_value=5000.0))
    cv = draw(st.floats(min_value=0.0, max_value=1.0))
    rho = draw(st.floats(min_value=0.0, max_value=0.99))
    return Task(f"T{i}", tuf, NormalDemand(mean, (cv * mean) ** 2),
                UAMSpec(1, window), nu=nu, rho=rho)


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_uer_optimal_frequency_at_least_energy_optimal(data):
    scale = data.draw(scales())
    model = data.draw(models(scale.f_max))
    n = data.draw(st.integers(min_value=1, max_value=4))
    taskset = TaskSet(data.draw(tasks(i)) for i in range(n))
    f_e = energy_optimal_frequency(model, scale)
    for name, params in offline_computing(taskset, scale, model).items():
        assert params.optimal_frequency >= f_e, (name, params, f_e)
