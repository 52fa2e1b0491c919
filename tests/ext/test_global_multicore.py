"""The §6 energy extensions on the global multicore engine.

Global dispatch picks the top-m jobs over a shared view with
``dvs=False`` and then asks the policy for each core's frequency over
that core's residual view (``Scheduler.decide_frequency``).  The
extensions are EUA* subclasses, so they take the same per-core step:
one whose budget or battery never binds runs exactly as EUA*.
"""

import json

import pytest

from repro.core import EUAStar
from repro.cpu import energy_optimal_frequency
from repro.experiments import PlatformSpec, WorkloadSpec
from repro.ext import BudgetedEUA, HarvestingEUA, HarvestProfile
from repro.mp import simulate_mp
from repro.obs import Observer, events_to_jsonl

WORKLOAD = WorkloadSpec(load=0.7, seed=3, horizon=1.5, cores=2)


def _run(make, energy="E1"):
    """``(result, engine records without seq, platform)`` of one m=2 run."""
    platform = PlatformSpec(cores=2, mp_mode="global", energy=energy).build_mp()
    obs = Observer(events=True, metrics=False)
    result = simulate_mp(WORKLOAD.build()[1], make, platform, mode="global", observer=obs)
    records = []
    for line in events_to_jsonl(obs.events).splitlines():
        record = json.loads(line)
        if record["source"] == "engine":
            record.pop("seq")
            records.append(record)
    return result, records, platform


@pytest.mark.parametrize("make", [
    lambda: BudgetedEUA(budget=1e18, mission_horizon=1.5),
    lambda: HarvestingEUA(capacity=1e18, harvest=HarvestProfile.constant(0.0)),
], ids=["budget", "harvest"])
def test_never_binding_extension_runs_as_eua_star(make):
    reference, reference_records, _ = _run(EUAStar)
    result, records, _ = _run(make)
    assert records == reference_records
    assert result.energy == reference.energy
    assert result.metrics.accrued_utility == reference.metrics.accrued_utility


def test_conserving_zone_floors_every_core_frequency():
    # 30 % charge on a huge battery: conserving for the whole run.  On
    # E3 the energy-optimal frequency sits above the ladder's bottom.
    result, records, platform = _run(
        lambda: HarvestingEUA(capacity=1e18, initial_charge=3e17,
                              harvest=HarvestProfile.constant(0.0)),
        energy="E3")
    f_opt = energy_optimal_frequency(platform.energy_model, platform.scale)
    assert f_opt > platform.scale.f_min
    dispatched = [r for r in records if r["kind"] in ("dispatch", "freq_switch")]
    assert {r["fields"]["core"] for r in dispatched} == {0, 1}
    assert min(r["fields"]["frequency"] for r in dispatched) >= f_opt
