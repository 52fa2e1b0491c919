"""The checker's σ rules re-derive plain Algorithm 1 only.

An EUA* subclass with its own ranking metric (``_metric``) or σ
candidate filter (``_candidates``) follows its own policy on purpose;
``sigma_head``/``abort_set`` must not flag it, while every other
per-decision rule still applies.
"""

import pytest

from repro.check import InvariantChecker
from repro.core import EUAStar
from repro.experiments import WorkloadSpec
from repro.ext import BudgetedEUA, HarvestingEUA, HarvestProfile, ProgressAwareEUA
from repro.sim import Platform, simulate

#: Burst overload: plain-UER and marginal-UER rankings disagree here
#: (ProgressAwareEUA drew 50 ``sigma_head`` reports when the σ rules
#: covered every EUA* subclass).
WORKLOAD = WorkloadSpec(load=0.9, seed=0, horizon=1.5, arrival_mode="burst")


@pytest.mark.parametrize("make", [
    EUAStar,
    ProgressAwareEUA,
    # Mostly yellow zone: plain EUA* spends ~8.7e8 here, so this budget
    # runs behind proportional drain for most of the run.
    lambda: BudgetedEUA(budget=5.0e8, mission_horizon=1.5),
    # Conserving zone throughout: 30 % charge on a battery far larger
    # than the run draws.
    lambda: HarvestingEUA(capacity=1e18, initial_charge=3e17,
                          harvest=HarvestProfile.constant(0.0)),
], ids=["eua", "progress", "budget-yellow", "harvest-conserving"])
def test_policy_subclasses_run_clean(make):
    checker = InvariantChecker(mode="collect")
    simulate(WORKLOAD.build()[1], make(), Platform(), checker=checker)
    assert checker.violations == []
