"""The checker's σ rules re-derive plain Algorithm 1 only.

An EUA* subclass with its own σ candidate filter (``_candidates``)
follows its own policy on purpose; ``sigma_head``/``abort_set`` must
not flag it, while every other per-decision rule still applies.
"""

import pytest

from repro.check import InvariantChecker
from repro.core import EUAStar
from repro.experiments import WorkloadSpec
from repro.ext import BudgetedEUA
from repro.sim import Platform, simulate

#: Burst overload.
WORKLOAD = WorkloadSpec(load=0.9, seed=0, horizon=1.5, arrival_mode="burst")


@pytest.mark.parametrize("make", [
    EUAStar,
    # Mostly yellow zone: plain EUA* spends ~8.7e8 here, so this budget
    # runs behind proportional drain for most of the run.
    lambda: BudgetedEUA(budget=5.0e8, mission_horizon=1.5),
], ids=["eua", "budget-yellow"])
def test_policy_subclasses_run_clean(make):
    checker = InvariantChecker(mode="collect")
    simulate(WORKLOAD.build()[1], make(), Platform(), checker=checker)
    assert checker.violations == []
