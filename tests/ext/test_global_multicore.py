"""The §6 energy extension on the global multicore engine.

Global dispatch picks the top-m jobs over a shared view with
``dvs=False`` and then asks the policy for each core's frequency over
that core's residual view (``Scheduler.decide_frequency``).  The
extension is an EUA* subclass, so it takes the same per-core step:
one whose budget never binds runs exactly as EUA*.
"""

import json

import pytest

from repro.core import EUAStar
from repro.experiments import PlatformSpec, WorkloadSpec
from repro.ext import BudgetedEUA
from repro.mp import simulate_mp
from repro.obs import Observer, events_to_jsonl

WORKLOAD = WorkloadSpec(load=0.7, seed=3, horizon=1.5, cores=2)


def _run(make):
    """``(result, engine records without seq)`` of one m=2 run."""
    platform = PlatformSpec(cores=2, mp_mode="global", energy="E1").build_mp()
    obs = Observer(events=True, metrics=False)
    result = simulate_mp(WORKLOAD.build()[1], make, platform, mode="global", observer=obs)
    records = []
    for line in events_to_jsonl(obs.events).splitlines():
        record = json.loads(line)
        if record["source"] == "engine":
            record.pop("seq")
            records.append(record)
    return result, records


@pytest.mark.parametrize("make", [
    lambda: BudgetedEUA(budget=1e18, mission_horizon=1.5),
], ids=["budget"])
def test_never_binding_extension_runs_as_eua_star(make):
    reference, reference_records = _run(EUAStar)
    result, records = _run(make)
    assert records == reference_records
    assert result.energy == reference.energy
    assert result.metrics.accrued_utility == reference.metrics.accrued_utility
