"""Telemetry attached to campaigns/sweeps must be observe-only.

The contract mirrors the engine's span transparency: attaching a
:class:`~repro.obs.Telemetry` to ``run_campaign``/``run_sweep`` may not
change a single aggregate bit, at any workers setting — and the capture
itself must account for the run (phases present, counters exact,
worker lanes populated in pool mode).
"""

import pytest

from repro.experiments.parallel import run_sweep
from repro.obs import Telemetry, build_phase_report
from repro.stats import CampaignConfig, EarlyStopRule, RunCache, run_campaign

pytestmark = pytest.mark.filterwarnings(
    "ignore:.*falling back to serial.*"
)


def _config(**overrides):
    base = dict(
        load=0.8,
        horizon=0.5,
        schedulers=("EUA*",),
        n_replications=4,
        base_seed=11,
    )
    base.update(overrides)
    return CampaignConfig(**base)


def _flatten(result):
    out = {}
    for name, stats in result.schedulers.items():
        out[name] = {
            k: (s.mean, s.std, s.n, s.half_width)
            for k, s in stats.metrics.items()
        }
    return out


# ----------------------------------------------------------------------
# Determinism: telemetry must not move a single bit
# ----------------------------------------------------------------------
@pytest.mark.parametrize("workers", [1, 2])
def test_campaign_identical_with_and_without_telemetry(workers):
    plain = run_campaign(_config(), workers=workers)
    traced = run_campaign(_config(), workers=workers,
                          telemetry=Telemetry())
    assert _flatten(traced) == _flatten(plain)


def test_sweep_identical_with_and_without_telemetry():
    items = list(range(5))
    plain = run_sweep(_square, items, max_workers=1)
    assert plain == run_sweep(
        _square, items, max_workers=1, telemetry=Telemetry()
    )


# ----------------------------------------------------------------------
# The capture accounts for the run
# ----------------------------------------------------------------------
def test_campaign_telemetry_phases_counters_and_coverage():
    telemetry = Telemetry()
    result = run_campaign(_config(), workers=1, telemetry=telemetry)
    assert telemetry.tracer.open_depth == 0
    report = build_phase_report(telemetry)
    paths = {r.phase for r in report.phases}
    for leaf in ("campaign.plan", "campaign.cache",
                 "campaign.simulate", "campaign.fold"):
        assert any(p.rsplit("/", 1)[-1] == leaf for p in paths), leaf
    # Serial execution is in-tree (one span per dispatched chunk) and
    # lane-tracked as "main".
    assert any(p.rsplit("/", 1)[-1] == "pool.chunk" for p in paths)
    assert [w.worker for w in report.workers] == ["main"]
    # Counters match the campaign's own accounting exactly.
    assert telemetry.counter_value("campaign.reps_simulated") == result.n_simulated
    # Every simulated replication was folded worker-side exactly once.
    assert telemetry.counter_value("campaign.worker_folds") == result.n_simulated
    assert telemetry.counter_value("campaign.cache_misses") == 0.0
    assert report.cache_hit_rate is None  # no cache attached -> no probes
    assert report.reps_per_second > 0.0
    assert report.coverage() == pytest.approx(1.0, abs=0.10)


def test_early_stop_rule_traced_as_stop_check(tmp_path):
    """The sequential peek only exists when a rule is set — and then it
    must show up in the trace (once per peek, including the pre-batch
    one)."""
    config = _config(
        n_replications=4,
        early_stop=EarlyStopRule(min_replications=1, confidence=0.9,
                                 check_every=2),
    )
    telemetry = Telemetry()
    run_campaign(config, telemetry=telemetry)
    report = build_phase_report(telemetry)
    stop_rows = [r for r in report.phases
                 if r.phase.rsplit("/", 1)[-1] == "campaign.stop_check"]
    assert stop_rows and stop_rows[0].count >= 1


def test_warm_cache_telemetry_hit_rate_is_one(tmp_path):
    cache = RunCache(tmp_path / "cache")
    run_campaign(_config(), cache=cache)
    telemetry = Telemetry()
    warm = run_campaign(_config(), cache=cache, telemetry=telemetry)
    assert warm.n_simulated == 0
    report = build_phase_report(telemetry)
    assert report.cache_hit_rate == 1.0
    assert telemetry.counter_value("campaign.cache_hits") == warm.n_cached
    assert report.reps_per_second is None  # nothing was simulated


def test_parallel_sweep_records_worker_lanes_and_payload():
    telemetry = Telemetry()
    items = list(range(8))
    values = run_sweep(_square, items, max_workers=2, telemetry=telemetry)
    assert values == [i * i for i in items]
    assert telemetry.counter_value("pool.items") == len(items)
    report = build_phase_report(telemetry)
    paths = {r.phase for r in report.phases}
    leaves = {p.rsplit("/", 1)[-1] for p in paths}
    # Lanes hold one busy interval per dispatched chunk.
    chunks = telemetry.counter_value("pool.chunks")
    assert 1 <= chunks <= len(items)
    assert sum(len(w.intervals) for w in report.workers) == chunks
    if telemetry.counter_value("pool.pickled_bytes") > 0.0:
        # Pool path: serialize/submit/fold phases plus per-pid lanes.
        assert {"pool.serialize", "pool.submit", "pool.fold"} <= leaves
        assert report.workers, "expected at least one worker lane"
        assert all(w.worker.startswith("pid-") for w in report.workers)
    else:
        # Serial fallback (sandboxed hosts): still traced, lane "main".
        assert "pool.chunk" in leaves
        assert [w.worker for w in report.workers] == ["main"]


def _square(i):
    return i * i
