"""Decision pins for the §6 energy extensions (`repro.ext`).

Each case runs :class:`BudgetedEUA` on one uniprocessor workload and
compares a fingerprint of the run with a pinned value: the
engine-sourced event records, the exact accrued utility and energy
(``repr``), and the extension's counter.  Records
from the scheduler itself (σ ``insert``/``reject``, ``freq_decision``)
are left out and ``seq`` is dropped, so the pin holds whichever events
the policy emits alongside the engine's.

The cases cover every zone: budget 5e8 stays mostly green, 1.7e8 and
8.5e7 cross yellow into red (``test_cases_cover_every_zone`` asserts
this).  Burst arrivals release several jobs of one task at the
same instant, the case where ranking tie-breaks could disagree.

Run this module as a script to print the current fingerprints.
"""

import collections
import hashlib
import json

import pytest

from repro.experiments import WorkloadSpec, energy_setting
from repro.ext import BudgetedEUA
from repro.obs import Observer, events_to_jsonl
from repro.sim import Platform, simulate

ARRIVALS = ("periodic", "burst")

#: ``name -> scheduler factory``; budgets are in the platform's energy
#: units (plain EUA* spends ~3.3e8 on either workload).
CASES = {
    "budget-green": lambda: BudgetedEUA(budget=5.0e8, mission_horizon=1.0),
    "budget-yellow": lambda: BudgetedEUA(budget=1.7e8, mission_horizon=1.0),
    "budget-red": lambda: BudgetedEUA(budget=8.5e7, mission_horizon=1.0),
}

#: ``(case, arrivals) -> (records sha256, record count, repr(utility),
#: repr(energy), energy_rejections)``.
PINNED = {
    ('budget-green', 'periodic'): ('a5429363df3f664c6a28ce88c1fafc1443f1231cde694ed74e7ef9b065a98836', 383, '4558.943455336337', '333938644.61896753', 0),
    ('budget-red', 'periodic'): ('4a2a7b568bdb7bb2bf78edc9d1190fd5eb193bdf3234f238ca3b85d709ac66b9', 198, '1155.0188711382557', '85011020.53291206', 216),
    ('budget-yellow', 'periodic'): ('1de71fd5aa9a2f89d04be3e9c18a7e3dead1b086458c81627f054530858ce7a0', 272, '2270.4098968751314', '177965291.25348327', 347),
    ('budget-green', 'burst'): ('43a9093e3b5aecd6a31aa98e74f6936ed109fd5ef2f5463ecf48482d9e5de78b', 1139, '20529.09808262042', '333743030.2207779', 0),
    ('budget-red', 'burst'): ('8120c8dd8204f284890878ac7bc3df1b2c1ae1f80317c093f40671bc0dd0f13f', 757, '5235.136118162634', '85175713.49551131', 2044),
    ('budget-yellow', 'burst'): ('452cf06e7df75266ab4ae1c0d784b60da8945169ad4498bb9bff8d317f7a63df', 879, '10117.554865859214', '176839381.8537054', 3161),
}


def _platform():
    return Platform(energy_model=energy_setting("E2"), idle_power=0.5)


def _trace(arrivals):
    return WorkloadSpec(load=1.0, seed=1, horizon=1.0, arrival_mode=arrivals).build()[1]


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
            repr(result.energy), sched.energy_rejections)


@pytest.mark.parametrize("arrivals", ARRIVALS)
@pytest.mark.parametrize("case", sorted(CASES))
def test_decisions_match_pin(case, arrivals):
    assert fingerprint(case, arrivals) == PINNED[(case, arrivals)]


@pytest.mark.parametrize("arrivals", ARRIVALS)
def test_cases_cover_every_zone(arrivals):
    """The pinned cases between them visit every zone of the policy."""
    seen = collections.Counter()
    trace = _trace(arrivals)
    for make in CASES.values():
        sched = make()
        floor = sched._admission_floor

        def spy(view, floor=floor):
            f = floor(view)
            seen["red" if f == float("inf") else "green" if f == 0.0 else "yellow"] += 1
            return f

        sched._admission_floor = spy
        simulate(trace, sched, _platform())
    assert set(seen) == {"green", "yellow", "red"}


if __name__ == "__main__":
    for arrivals in ARRIVALS:
        for case in sorted(CASES):
            print(f"    ({case!r}, {arrivals!r}): {fingerprint(case, arrivals)!r},")
