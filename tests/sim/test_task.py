"""Tests for Task/TaskSet (repro.sim.task)."""


import pytest

from repro.arrivals import BurstUAMArrivals, PeriodicArrivals, UAMSpec
from repro.demand import DeterministicDemand, NormalDemand, chebyshev_allocation
from repro.sim import Task, TaskModelError, TaskSet
from repro.tuf import LinearTUF, StepTUF


def _task(**kw):
    defaults = dict(
        name="T",
        tuf=StepTUF(10.0, 0.1),
        demand=NormalDemand(20.0, 20.0),
        uam=UAMSpec(1, 0.1),
        nu=1.0,
        rho=0.96,
    )
    defaults.update(kw)
    return Task(**defaults)


class TestDerivedParameters:
    def test_allocation_is_chebyshev(self):
        t = _task()
        assert t.allocation == pytest.approx(chebyshev_allocation(20.0, 20.0, 0.96))

    def test_allocation_cached(self):
        t = _task()
        assert t.allocation is not None
        assert t._allocation == t.allocation

    def test_critical_time_step(self):
        assert _task().critical_time == 0.1

    def test_critical_time_linear(self):
        t = _task(tuf=LinearTUF(10.0, 0.1), nu=0.3)
        assert t.critical_time == pytest.approx(0.07)

    def test_window_cycles(self):
        t = _task(
            uam=UAMSpec(3, 0.1),
            arrivals=BurstUAMArrivals(UAMSpec(3, 0.1)),
        )
        assert t.window_cycles == pytest.approx(3 * t.allocation)

    def test_theorem1_frequency(self):
        t = _task(demand=DeterministicDemand(50.0))
        assert t.min_feasible_frequency == pytest.approx(50.0 / 0.1)

    def test_utilization(self):
        t = _task(demand=DeterministicDemand(50.0))
        assert t.utilization(1000.0) == pytest.approx(0.5)

    def test_utilization_rejects_bad_frequency(self):
        with pytest.raises(TaskModelError):
            _task().utilization(0.0)


class TestValidation:
    def test_rejects_empty_name(self):
        with pytest.raises(TaskModelError):
            _task(name="")

    def test_rejects_bad_nu(self):
        with pytest.raises(TaskModelError):
            _task(nu=1.5)

    def test_rejects_bad_rho(self):
        with pytest.raises(TaskModelError):
            _task(rho=1.0)

    def test_step_tuf_fractional_nu_rejected(self):
        with pytest.raises(TaskModelError):
            _task(nu=0.5)

    def test_linear_tuf_fractional_nu_ok(self):
        _task(tuf=LinearTUF(10.0, 0.1), nu=0.5)

    def test_default_arrivals_need_a_equal_1(self):
        with pytest.raises(TaskModelError):
            _task(uam=UAMSpec(2, 0.1))

    def test_generator_outside_envelope_rejected(self):
        with pytest.raises(TaskModelError):
            _task(arrivals=PeriodicArrivals(0.05))  # <1, .05> not in <1, .1>

    def test_generator_with_larger_window_accepted(self):
        _task(arrivals=PeriodicArrivals(0.2))

    def test_implied_spec_accepted(self):
        # <1, P/2> implies <2, P>.
        _task(
            uam=UAMSpec(2, 0.1),
            arrivals=PeriodicArrivals(0.05),
        )

    def test_zero_critical_time_rejected(self):
        # nu = 1 on a linear TUF puts D_i at the release: C_i / D_i is undefined.
        t = _task(tuf=LinearTUF(10.0, 0.1), nu=1.0)
        with pytest.raises(TaskModelError, match=r"'T'.*nu=1\.0.*LinearTUF"):
            t.min_feasible_frequency


class TestScaling:
    def test_scaled_demand_linear_in_k(self):
        t = _task()
        t2 = t.scaled_demand(2.0)
        assert t2.allocation == pytest.approx(2.0 * t.allocation)
        assert t2.demand.mean == pytest.approx(2.0 * t.demand.mean)
        assert t2.demand.variance == pytest.approx(4.0 * t.demand.variance)

    def test_scaled_keeps_identity_fields(self):
        t = _task()
        t2 = t.scaled_demand(2.0)
        assert t2.name == t.name
        assert t2.tuf is t.tuf
        assert t2.uam == t.uam

    def test_with_requirement(self):
        t = _task(tuf=LinearTUF(10.0, 0.1), nu=0.3, rho=0.9)
        t2 = t.with_requirement(0.5, 0.95)
        assert t2.nu == 0.5
        assert t2.rho == 0.95
        assert t2.critical_time < t.critical_time  # higher nu, earlier D


class TestTaskSet:
    def _set(self):
        return TaskSet([
            _task(name="A", demand=DeterministicDemand(30.0)),
            _task(name="B", demand=DeterministicDemand(20.0)),
        ])

    def test_len_iter_getitem(self):
        ts = self._set()
        assert len(ts) == 2
        assert [t.name for t in ts] == ["A", "B"]
        assert ts[1].name == "B"

    def test_by_name(self):
        assert self._set().by_name("B").name == "B"
        with pytest.raises(KeyError):
            self._set().by_name("C")

    def test_load_definition(self):
        # rho = (1/f_m) sum C_i / D_i
        ts = self._set()
        assert ts.load(1000.0) == pytest.approx((300.0 + 200.0) / 1000.0)

    def test_scaled_to_load_exact(self):
        ts = self._set().scaled_to_load(1.25, 1000.0)
        assert ts.load(1000.0) == pytest.approx(1.25)

    def test_scaled_preserves_proportions(self):
        ts = self._set().scaled_to_load(1.0, 1000.0)
        a, b = ts.by_name("A"), ts.by_name("B")
        assert a.allocation / b.allocation == pytest.approx(1.5)

    def test_rejects_duplicate_names(self):
        with pytest.raises(TaskModelError):
            TaskSet([_task(name="A"), _task(name="A")])

    def test_rejects_empty(self):
        with pytest.raises(TaskModelError):
            TaskSet([])

    def test_rejects_bad_target_load(self):
        with pytest.raises(TaskModelError):
            self._set().scaled_to_load(0.0, 1000.0)
