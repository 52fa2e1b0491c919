"""Tests for the programmatic ablation drivers (repro.experiments.ablations)."""

import pytest

from repro.core import EUAStar
from repro.experiments import (
    ablate_dasa,
    ablate_dvs,
    ablate_dvs_method,
    ablate_fopt,
    run_policy_grid,
)
from repro.experiments.parallel import SchedulerSpec
from repro.sched import EDFStatic


MINI = dict(seeds=(11,), horizon=1.0)


class TestPolicyGrid:
    def test_shared_workload_per_seed(self):
        out = run_policy_grid(
            [SchedulerSpec.of(EUAStar, name="A"), SchedulerSpec.of(EDFStatic, name="B")],
            load=0.6,
            seeds=(11, 13),
            horizon=1.0,
        )
        assert set(out) == {"A", "B"}
        assert len(out["A"]) == 2
        # Same released jobs within each seed.
        for ra, rb in zip(out["A"], out["B"]):
            assert sorted(j.key for j in ra.jobs) == sorted(j.key for j in rb.jobs)

    def test_parameters_forwarded(self):
        out = run_policy_grid(
            [SchedulerSpec.of(EUAStar, name="A")],
            load=0.5,
            seeds=(11,),
            horizon=1.0,
            tuf_shape="linear",
            nu=0.3,
            rho=0.9,
            arrival_mode="poisson",
            burst_override=2,
        )
        result = out["A"][0]
        task = result.metrics.taskset[0]
        assert task.uam.max_arrivals == 2
        assert task.nu == 0.3


class TestDrivers:
    def test_ablate_dvs_rows(self):
        rows = ablate_dvs(loads=(0.5,), **MINI)
        assert len(rows) == 1
        assert rows[0]["energy_ratio"] < 1.0
        assert rows[0]["utility_dvs"] == pytest.approx(rows[0]["utility_fmax"], abs=0.02)

    def test_ablate_fopt_rows(self):
        rows = ablate_fopt(load=0.5, **MINI)
        by = {r["energy_setting"]: r for r in rows}
        assert set(by) == {"E1", "E2", "E3"}
        # E3 without the bound is worse than with it.
        assert by["E3"]["without_fopt"] > by["E3"]["with_fopt"]

    def test_ablate_dvs_method_rows(self):
        rows = ablate_dvs_method(load=0.8, bursts=(1,), **MINI)
        assert rows[0]["demand_energy"] >= rows[0]["lookahead_energy"] - 0.05

    def test_ablate_dasa_rows(self):
        rows = ablate_dasa(loads=(0.6,), **MINI)
        assert rows[0]["energy_ratio"] < 0.8
        assert rows[0]["eua_utility"] == pytest.approx(rows[0]["dasa_utility"], abs=0.02)
