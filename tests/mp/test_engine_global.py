"""Tests for the global multicore engine (repro.mp.engine.GlobalEngine)."""

import numpy as np
import pytest

from repro.check import InvariantChecker, check_mp_result
from repro.experiments import synthesize_taskset
from repro.mp import GlobalEngine, MulticorePlatform, simulate_global, simulate_mp
from repro.sched import make_scheduler
from repro.sim import Platform, materialize
from repro.sim.engine import SimulationError


def _trace(load=1.6, seed=11, horizon=0.3, cores=2):
    rng = np.random.default_rng(seed)
    return materialize(synthesize_taskset(load * cores, rng), horizon, rng)


@pytest.fixture
def platform2():
    return MulticorePlatform.from_platform(Platform(), cores=2)


def test_basic_m2_run(platform2):
    result = simulate_mp(_trace(), "EUA*", platform2, mode="global",
                         checker=InvariantChecker())
    assert result.mode == "global"
    assert result.cores == 2
    assert result.migrations >= 0
    assert len(result.per_core_stats) == 2
    assert result.jobs


def test_invariants_hold_across_core_counts():
    for m in (1, 2, 4):
        platform = MulticorePlatform.from_platform(Platform(), cores=m)
        result = simulate_mp(
            _trace(cores=m), "EUA*", platform, mode="global", checker=InvariantChecker()
        )
        assert len(result.per_core_stats) == m


def test_single_core_never_migrates():
    platform = MulticorePlatform.from_platform(Platform(), cores=1)
    result = simulate_global(_trace(cores=1), "EUA*", platform)
    assert result.migrations == 0


def test_migration_counter_matches_segments(platform2):
    result = simulate_global(_trace(), "EUA*", platform2)
    # check_mp_result reconstructs migrations from the segment record
    # (MP3) and raises on any mismatch with the engine's counter.
    check_mp_result(result)


def test_core_traces_tile_the_horizon():
    # Each core's Trace covers [0, horizon] exactly once, coalesced (no
    # two neighbours share a state); the invariant suite audits those
    # same segments through result.core_segments.
    platform = MulticorePlatform.from_platform(Platform(), cores=4)
    workload = _trace(cores=4)
    engine = GlobalEngine(workload, make_scheduler("EUA*"), platform)
    result = engine.run()
    for trace, segments, stats in zip(engine.traces, result.core_segments,
                                      result.per_core_stats):
        assert segments is trace.segments
        assert trace.is_contiguous()
        assert trace.segments[0].start == 0.0
        assert trace.segments[-1].end == workload.horizon
        for a, b in zip(trace.segments, trace.segments[1:]):
            assert (a.job_key, a.frequency) != (b.job_key, b.frequency)
        assert trace.busy_time() == pytest.approx(stats.busy_time)
    check_mp_result(result)


def test_completions_land_within_horizon(platform2):
    from repro.sim.job import JobStatus

    result = simulate_mp(_trace(), "EUA*", platform2, mode="global")
    completed = [j for j in result.jobs if j.status is JobStatus.COMPLETED]
    assert completed
    for job in completed:
        assert job.completion_time <= result.horizon + 1e-9


def test_switch_time_rejected(platform2):
    stalling = Platform(switch_time=1e-4)
    platform = MulticorePlatform.from_platform(stalling, cores=2)
    with pytest.raises(SimulationError):
        GlobalEngine(_trace(), make_scheduler("EUA*"), platform)


def test_switch_energy_still_allowed():
    base = Platform(switch_energy=10.0)
    platform = MulticorePlatform.from_platform(base, cores=2)
    result = simulate_global(_trace(), "EUA*", platform)
    assert result.energy > 0.0


def test_global_dvs_scales_below_fmax_at_nominal_load():
    """The PR 10 headline fix: per-core residual decideFreq views.

    Pre-fix, the shared m-scaled selection view drove decideFreq, whose
    aggregate demand exceeded one core's f_max at any nominal load —
    global EUA* energy degenerated to exactly the EDF@f_max normaliser.
    With per-core views it must scale frequency (strictly less energy)
    without giving up utility.
    """
    m = 4
    platform = MulticorePlatform.from_platform(Platform(), cores=m)
    trace = _trace(load=0.8, cores=m, horizon=0.4)
    eua = simulate_mp(trace, "EUA*", platform, mode="global", checker=InvariantChecker())
    edf = simulate_mp(trace, "EDF", platform, mode="global")
    assert eua.energy < edf.energy  # not f_max-pinned any more
    assert eua.normalized_utility >= edf.normalized_utility - 1e-9


def test_global_overload_still_runs_at_fmax():
    """At 1.6 per-core load there is no slack to reclaim: every core
    must keep running at f_max (line 9's overload cap), so EUA* energy
    equals the EDF@f_max normaliser bit-for-bit."""
    m = 2
    platform = MulticorePlatform.from_platform(Platform(), cores=m)
    trace = _trace(load=1.6, cores=m)
    eua = simulate_mp(trace, "EUA*", platform, mode="global")
    edf = simulate_mp(trace, "EDF", platform, mode="global")
    assert eua.energy == edf.energy


def test_global_freq_decisions_are_per_core(platform2):
    """Frequency decisions come from decide_frequency over per-core
    views: every FREQ_DECISION event is core-stamped, and at nominal
    load at least one lands below f_max."""
    from repro.obs import EventKind, Observer

    obs = Observer(events=True, metrics=False)
    simulate_global(_trace(load=0.8), "EUA*", platform2, observer=obs)
    decisions = obs.events.of_kind(EventKind.FREQ_DECISION)
    assert decisions
    assert all("core" in e.fields for e in decisions)
    f_max = Platform().scale.f_max
    assert any(e.fields["frequency"] < f_max for e in decisions)


def test_events_carry_core_field(platform2):
    from repro.obs import EventKind, Observer

    obs = Observer(events=True, metrics=False)
    simulate_global(_trace(), "EUA*", platform2, observer=obs)
    dispatches = obs.events.of_kind(EventKind.DISPATCH)
    assert dispatches
    assert all("core" in e.fields for e in dispatches)
    cores = {e.fields["core"] for e in dispatches}
    assert cores <= {0, 1}
    assert 0 in cores


def test_global_run_records_engine_phase_spans(platform2):
    """Global mode runs the engine's own event loop, so a SpanTracer
    sees the same engine.run phase tree as a uniprocessor run."""
    from repro.obs import Observer, build_phase_report

    obs = Observer(events=False, metrics=False, spans=True)
    simulate_global(_trace(load=0.8), "EUA*", platform2, observer=obs)
    assert obs.spans.open_depth == 0
    paths = {s.path for s in obs.spans.spans}
    assert "engine.run" in paths
    for phase in ("release", "expiry", "snapshot", "decide", "advance", "complete"):
        assert f"engine.run/engine.{phase}" in paths
    report = build_phase_report(obs.spans)
    assert report.coverage() == pytest.approx(1.0, abs=0.10)
