"""m=1 anchoring oracle: the multicore engines must be *bit-identical*
to the uniprocessor engine at one core.

Partitioned mode literally runs the uniprocessor ``Engine`` on the
single core; global mode runs the same ``Engine`` event loop over a
one-element core list, whose dispatch step is then a single ``decide``
call, so at m=1 its float stream must coincide exactly.  The
comparison covers the full structured event log (modulo the mp-only
``core`` field) and the energy/utility aggregates with ``==`` — any
tolerance here would let the engines drift apart silently.
"""

import json

import numpy as np
import pytest

from repro.experiments import synthesize_taskset
from repro.mp import MulticorePlatform, simulate_mp
from repro.obs import Observer, events_to_jsonl
from repro.sched import make_scheduler
from repro.sim import Platform, materialize, simulate

LOADS = (0.8, 1.6)
SCHEDULERS = ("EUA*", "EDF", "DASA")


def _trace(load, seed=11, horizon=0.3):
    rng = np.random.default_rng(seed)
    return materialize(synthesize_taskset(load, rng), horizon, rng)


def _log_without_core(observer):
    events = [json.loads(line) for line in events_to_jsonl(observer.events).splitlines()]
    for event in events:
        event.get("fields", {}).pop("core", None)
    return events


@pytest.mark.parametrize("mode", ["partitioned", "global"])
@pytest.mark.parametrize("load", LOADS)
@pytest.mark.parametrize("scheduler", SCHEDULERS)
def test_m1_bit_identical_to_uniprocessor(mode, load, scheduler):
    trace = _trace(load)
    obs_uni = Observer(events=True, metrics=False)
    uni = simulate(trace, make_scheduler(scheduler), Platform(), observer=obs_uni)

    obs_mp = Observer(events=True, metrics=False)
    platform = MulticorePlatform.from_platform(Platform(), cores=1)
    mp = simulate_mp(trace, scheduler, platform, mode=mode, observer=obs_mp)

    # Exact float equality — no tolerances.
    assert mp.processor_stats.total_energy == uni.processor_stats.total_energy
    assert mp.processor_stats.busy_time == uni.processor_stats.busy_time
    assert sum(j.accrued_utility for j in mp.jobs) == sum(
        j.accrued_utility for j in uni.jobs
    )
    assert mp.migrations == 0

    uni_events = _log_without_core(obs_uni)
    mp_events = _log_without_core(obs_mp)
    assert len(mp_events) == len(uni_events)
    assert mp_events == uni_events


@pytest.mark.parametrize("mode", ["partitioned", "global"])
def test_m1_aggregates_match_on_metrics(mode):
    trace = _trace(1.2)
    uni = simulate(trace, make_scheduler("EUA*"), Platform())
    platform = MulticorePlatform.from_platform(Platform(), cores=1)
    mp = simulate_mp(trace, "EUA*", platform, mode=mode)
    assert mp.metrics.summary() == uni.metrics.summary()


@pytest.mark.parametrize("mode", ["partitioned", "global"])
@pytest.mark.parametrize("cores", [2, 4])
def test_multicore_runs_pass_invariants(mode, cores):
    trace = _trace(0.8 * cores)
    platform = MulticorePlatform.from_platform(Platform(), cores=cores)
    result = simulate_mp(
        trace, "EUA*", platform, mode=mode, check=True, record_trace=True
    )
    assert result.cores == cores
    if mode == "partitioned":
        assert result.migrations == 0
