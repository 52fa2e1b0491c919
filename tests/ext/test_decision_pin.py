"""Decision pins for the §6 energy extensions (`repro.ext`).

Each case runs :class:`BudgetedEUA` or :class:`HarvestingEUA` on one
uniprocessor workload and compares a fingerprint of the run with a
pinned value: the engine-sourced event records, the exact accrued
utility and energy (``repr``), and the extension's counter.  Records
from the scheduler itself (σ ``insert``/``reject``, ``freq_decision``)
are left out and ``seq`` is dropped, so the pin holds whichever events
the policy emits alongside the engine's.

The cases cover every zone: budget 5e8 stays mostly green, 1.7e8 and
8.5e7 cross yellow into red; the first harvest setting visits
surplus, conserving and depleted, the second starts empty and
alternates conserving and depleted (``test_cases_cover_every_zone``
asserts this).  Burst arrivals release several jobs of one task at the
same instant, the case where ranking tie-breaks could disagree.

Run this module as a script to print the current fingerprints.
"""

import collections
import hashlib
import json

import pytest

from repro.experiments import WorkloadSpec, energy_setting
from repro.ext import BudgetedEUA, HarvestingEUA, HarvestProfile
from repro.obs import Observer, events_to_jsonl
from repro.sim import Platform, simulate

ARRIVALS = ("periodic", "burst")

#: ``name -> scheduler factory``; budgets and capacities are in the
#: platform's energy units (plain EUA* spends ~3.3e8 on either workload).
CASES = {
    "budget-green": lambda: BudgetedEUA(budget=5.0e8, mission_horizon=1.0),
    "budget-yellow": lambda: BudgetedEUA(budget=1.7e8, mission_horizon=1.0),
    "budget-red": lambda: BudgetedEUA(budget=8.5e7, mission_horizon=1.0),
    "harvest-all-zones": lambda: HarvestingEUA(
        capacity=1.0e8, harvest=HarvestProfile([(0.0, 1.7e8), (0.5, 3.4e7)])),
    "harvest-empty-start": lambda: HarvestingEUA(
        capacity=3.3e7, harvest=HarvestProfile([(0.0, 1.0e8), (0.5, 2.0e7)]),
        initial_charge=0.0),
}

#: ``(case, arrivals) -> (records sha256, record count, repr(utility),
#: repr(energy), counter)``; the counter is ``energy_rejections`` for a
#: budget case and ``depleted_decisions`` for a harvest case.
PINNED = {
    ('budget-green', 'periodic'): ('a5429363df3f664c6a28ce88c1fafc1443f1231cde694ed74e7ef9b065a98836', 383, '4558.943455336337', '333938644.61896753', 0),
    ('budget-red', 'periodic'): ('4a2a7b568bdb7bb2bf78edc9d1190fd5eb193bdf3234f238ca3b85d709ac66b9', 198, '1155.0188711382557', '85011020.53291206', 216),
    ('budget-yellow', 'periodic'): ('1de71fd5aa9a2f89d04be3e9c18a7e3dead1b086458c81627f054530858ce7a0', 272, '2270.4098968751314', '177965291.25348327', 347),
    ('harvest-all-zones', 'periodic'): ('ebd1907901f7d2e33159a89f1ebe7830bb8cf77424548e5305fdddf687575345', 283, '3117.8367300607265', '196284026.4322302', 34),
    ('harvest-empty-start', 'periodic'): ('ecf23b4682565b773777a2da4ed41951c15b8896bc0c9add0cf3f80718813dce', 174, '1778.4367316504076', '58298204.68726933', 62),
    ('budget-green', 'burst'): ('43a9093e3b5aecd6a31aa98e74f6936ed109fd5ef2f5463ecf48482d9e5de78b', 1139, '20529.09808262042', '333743030.2207779', 0),
    ('budget-red', 'burst'): ('8120c8dd8204f284890878ac7bc3df1b2c1ae1f80317c093f40671bc0dd0f13f', 757, '5235.136118162634', '85175713.49551131', 2044),
    ('budget-yellow', 'burst'): ('452cf06e7df75266ab4ae1c0d784b60da8945169ad4498bb9bff8d317f7a63df', 879, '10117.554865859214', '176839381.8537054', 3161),
    ('harvest-all-zones', 'burst'): ('cdea0f199b197961704b012aba51eea14b1461612930cc03d0bbc74f31081bb5', 942, '14174.4247825506', '196655973.61928228', 38),
    ('harvest-empty-start', 'burst'): ('7c2e0cc02ce35c3d65626a3ffdefb64e69804c489fea1b70c1060878014f96af', 777, '8971.416845889784', '58387189.41472042', 62),
}


def _platform():
    return Platform(energy_model=energy_setting("E2"), idle_power=0.5)


def _trace(arrivals):
    return WorkloadSpec(load=1.0, seed=1, horizon=1.0, arrival_mode=arrivals).build()[1]


def _counter(sched):
    if isinstance(sched, BudgetedEUA):
        return sched.energy_rejections
    return sched.depleted_decisions


def fingerprint(case, arrivals):
    sched = CASES[case]()
    obs = Observer(events=True, metrics=False)
    result = simulate(_trace(arrivals), sched, _platform(), observer=obs)
    records = []
    for line in events_to_jsonl(obs.events).splitlines():
        record = json.loads(line)
        if record.get("source") != "engine":
            continue
        record.pop("seq", None)
        records.append(json.dumps(record, sort_keys=True))
    digest = hashlib.sha256("\n".join(records).encode()).hexdigest()
    return (digest, len(records), repr(result.metrics.accrued_utility),
            repr(result.energy), _counter(sched))


@pytest.mark.parametrize("arrivals", ARRIVALS)
@pytest.mark.parametrize("case", sorted(CASES))
def test_decisions_match_pin(case, arrivals):
    assert fingerprint(case, arrivals) == PINNED[(case, arrivals)]


@pytest.mark.parametrize("arrivals", ARRIVALS)
def test_cases_cover_every_zone(arrivals):
    """The pinned cases between them visit every zone of both policies."""
    seen = collections.Counter()
    trace = _trace(arrivals)
    for case, make in CASES.items():
        sched = make()
        if isinstance(sched, BudgetedEUA):
            floor = sched._admission_floor

            def spy(view, floor=floor):
                f = floor(view)
                seen["red" if f == float("inf") else "green" if f == 0.0 else "yellow"] += 1
                return f

            sched._admission_floor = spy
        else:
            zone = sched._zone

            def spy(soc, zone=zone):
                z = zone(soc)
                seen[z] += 1
                return z

            sched._zone = spy
        simulate(trace, sched, _platform())
    assert set(seen) == {"green", "yellow", "red", "surplus", "conserving", "depleted"}


if __name__ == "__main__":
    for arrivals in ARRIVALS:
        for case in sorted(CASES):
            print(f"    ({case!r}, {arrivals!r}): {fingerprint(case, arrivals)!r},")
