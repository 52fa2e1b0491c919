"""Tests for the partitioned multicore engine (repro.mp.engine)."""

import numpy as np
import pytest

from repro.check import InvariantChecker, check_mp_result
from repro.experiments import synthesize_taskset
from repro.mp import MulticorePlatform, simulate_mp, simulate_partitioned
from repro.sched import make_scheduler
from repro.sim import Platform, materialize, simulate


def _trace(load=1.6, seed=11, horizon=0.3):
    rng = np.random.default_rng(seed)
    return materialize(synthesize_taskset(load, rng), horizon, rng)


@pytest.fixture
def platform2():
    return MulticorePlatform.from_platform(Platform(), cores=2)


def test_basic_m2_run(platform2):
    result = simulate_mp(
        _trace(), "EUA*", platform2, mode="partitioned", record_trace=True,
        checker=InvariantChecker(),
    )
    assert result.mode == "partitioned"
    assert result.cores == 2
    assert result.scheduler_name == "EUA*"
    assert result.migrations == 0
    assert len(result.per_core_stats) == 2
    assert result.jobs


def test_energy_is_per_core_sum(platform2):
    result = simulate_partitioned(_trace(), "EUA*", platform2)
    assert result.uncore_energy == 0.0
    assert result.energy == pytest.approx(
        sum(s.total_energy for s in result.per_core_stats), rel=1e-12
    )


def test_jobs_match_uniprocessor_population(platform2):
    trace = _trace()
    uni = simulate(trace, make_scheduler("EUA*"), Platform())
    mp = simulate_partitioned(trace, "EUA*", platform2)
    assert sorted(j.key for j in mp.jobs) == sorted(j.key for j in uni.jobs)


def test_uncore_energy_charged_for_active_cores():
    platform = MulticorePlatform.from_platform(Platform(), cores=2, active_power=5.0)
    trace = _trace(horizon=0.3)
    result = simulate_partitioned(trace, "EUA*", platform)
    assert result.uncore_energy == pytest.approx(5.0 * 2 * trace.horizon)
    per_core = sum(s.total_energy for s in result.per_core_stats)
    assert result.energy == pytest.approx(per_core + result.uncore_energy)


def test_empty_cores_idle_for_the_horizon(small_taskset, rng):
    # 4 tasks on 8 cores leaves at least 4 empty cores idling.
    trace = materialize(small_taskset, 0.3, rng)
    platform = MulticorePlatform.from_platform(Platform(), cores=8)
    result = simulate_partitioned(trace, "EUA*", platform, record_trace=True)
    assert len(result.per_core_stats) == 8
    empty = [i for i, sub in enumerate(result.per_core_results) if sub is None]
    assert len(empty) >= 4
    for core in empty:
        assert result.core_segments[core] == [(0.0, 0.3, None, platform.scale.f_max)]
    check_mp_result(result)


def test_partition_respected(platform2):
    result = simulate_partitioned(_trace(), "EUA*", platform2, record_trace=True)
    core_of = result.core_of_task
    for core, sub in enumerate(result.per_core_results):
        if sub is None:
            continue
        for job in sub.jobs:
            assert core_of[job.task.name] == core


def test_scheduler_instance_rejected_across_cores(platform2):
    # A stateful scheduler instance cannot be shared between cores; the
    # single-shot factory fails loudly on the second core.
    with pytest.raises(ValueError):
        simulate_partitioned(_trace(), make_scheduler("EUA*"), platform2)


def test_shared_checker_audits_every_core(platform2):
    checker = InvariantChecker(mode="collect")
    result = simulate_partitioned(_trace(), "EUA*", platform2, checker=checker)
    assert checker.violations == []
    assert result.core_segments is not None  # a checker implies record_trace


def test_unknown_mode_rejected(platform2):
    with pytest.raises(ValueError):
        simulate_mp(_trace(), "EUA*", platform2, mode="clustered")
