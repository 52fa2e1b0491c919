"""Tests for the utilization phase-transition study
(repro.experiments.threshold) and the per-replication assurance
Bernoulli it builds on (repro.stats.campaign)."""

import json
import subprocess
from pathlib import Path

import pytest

import repro
from repro.artifacts import write_bench_artifact
from repro.experiments.threshold import (
    ArrivalShape,
    ThresholdConfig,
    ThresholdPoint,
    _coerce,
    _interpolate_crossing,
    _wilson_band,
    run_threshold,
    smoke_config,
)
from repro.stats.campaign import ReplicationSummary, _replication_success


# ----------------------------------------------------------------------
# ArrivalShape parsing
# ----------------------------------------------------------------------
class TestArrivalShape:
    def test_plain_name(self):
        shape = ArrivalShape.parse("poisson")
        assert shape.name == "poisson" and shape.params == ()

    def test_params_are_coerced(self):
        shape = ArrivalShape.parse("nhpp-diurnal:peak_frac=0.25,cycle_windows=4")
        assert dict(shape.params) == {"peak_frac": 0.25, "cycle_windows": 4}
        assert isinstance(dict(shape.params)["cycle_windows"], int)

    def test_bool_and_str_literals(self):
        assert _coerce("true") is True and _coerce("False") is False
        assert _coerce("wfd") == "wfd"
        assert _coerce("3") == 3 and _coerce("0.5") == 0.5

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown arrival shape"):
            ArrivalShape.parse("no-such-shape")

    def test_trace_shapes_rejected(self):
        # Recorded-trace replay is not a registered shape.
        with pytest.raises(ValueError):
            ArrivalShape("trace")

    def test_malformed_param_rejected(self):
        with pytest.raises(ValueError, match="key=value"):
            ArrivalShape.parse("poisson:rate")

    def test_label_round_trips(self):
        shape = ArrivalShape.parse("flash-crowd:burst_factor=4")
        assert ArrivalShape.parse(shape.label) == shape

    def test_hashable_for_memoisation(self):
        assert len({ArrivalShape("poisson"), ArrivalShape("poisson")}) == 1


# ----------------------------------------------------------------------
# Config
# ----------------------------------------------------------------------
class TestThresholdConfig:
    def test_coarse_loads_span_the_range(self):
        cfg = ThresholdConfig(load_lo=1.0, load_hi=3.0, coarse_points=5)
        assert cfg.coarse_loads == (1.0, 1.5, 2.0, 2.5, 3.0)

    def test_campaign_config_maps_shape_and_load(self):
        cfg = ThresholdConfig()
        shape = ArrivalShape.parse("poisson:rel_rate=1.5")
        campaign = cfg.campaign_config(shape, 2.0)
        assert campaign.load == 2.0
        assert campaign.arrival_mode == "poisson"
        assert campaign.arrival_params == (("rel_rate", 1.5),)
        assert campaign.schedulers == cfg.schedulers

    @pytest.mark.parametrize("kw", [
        {"schedulers": ()},
        {"shapes": ()},
        {"load_lo": 2.0, "load_hi": 1.0},
        {"coarse_points": 1},
        {"refine_iters": -1},
        {"p_level": 0.0},
        {"width_lo": 0.9, "width_hi": 0.1},
    ])
    def test_validation(self, kw):
        with pytest.raises(ValueError):
            ThresholdConfig(**kw)

    def test_smoke_config_is_valid_and_small(self):
        cfg = smoke_config()
        assert cfg.schedulers == ("EUA*", "EDF")
        assert {s.name for s in cfg.shapes} == {"nhpp-diurnal", "flash-crowd"}
        assert cfg.coarse_points * cfg.n_replications <= 100


# ----------------------------------------------------------------------
# Characterisation helpers
# ----------------------------------------------------------------------
def _pts(pairs):
    return [
        ThresholdPoint(load=ld, successes=0, decided=0, probability=p,
                       ci_low=max(0.0, p - 0.2), ci_high=min(1.0, p + 0.2))
        for ld, p in pairs
    ]


class TestInterpolateCrossing:
    def test_linear_interpolation(self):
        points = _pts([(1.0, 1.0), (2.0, 0.0)])
        assert _interpolate_crossing(points, 0.5, 0.0, 3.0) == pytest.approx(1.5)

    def test_unequal_interpolation(self):
        points = _pts([(1.0, 0.8), (2.0, 0.2)])
        assert _interpolate_crossing(points, 0.5, 0.0, 3.0) == pytest.approx(1.5)
        assert _interpolate_crossing(points, 0.6, 0.0, 3.0) == pytest.approx(4.0 / 3.0)

    def test_clamps_to_lo_when_already_below(self):
        points = _pts([(1.0, 0.2), (2.0, 0.1)])
        assert _interpolate_crossing(points, 0.5, 0.5, 3.0) == 0.5

    def test_clamps_to_hi_when_never_crossing(self):
        points = _pts([(1.0, 1.0), (2.0, 0.9)])
        assert _interpolate_crossing(points, 0.5, 0.0, 3.0) == 3.0

    def test_empty_points_clamp_to_hi(self):
        assert _interpolate_crossing([], 0.5, 0.0, 3.0) == 3.0

    def test_flat_segment_at_level_returns_left_edge(self):
        points = _pts([(1.0, 0.5), (2.0, 0.4)])
        assert _interpolate_crossing(points, 0.5, 0.0, 3.0) == pytest.approx(1.0)


class TestWilsonBand:
    def test_band_brackets_the_uncertain_region(self):
        points = [
            ThresholdPoint(1.0, 10, 10, 1.0, 0.72, 1.0),
            ThresholdPoint(2.0, 5, 10, 0.5, 0.24, 0.76),
            ThresholdPoint(3.0, 0, 10, 0.0, 0.0, 0.28),
        ]
        assert _wilson_band(points, 0.5, 0.0, 4.0) == (1.0, 3.0)

    def test_defaults_to_sweep_edges_when_undecided(self):
        points = [ThresholdPoint(2.0, 5, 10, 0.5, 0.24, 0.76)]
        assert _wilson_band(points, 0.5, 0.0, 4.0) == (0.0, 4.0)

    def test_non_monotone_noise_widens_not_inverts(self):
        points = [
            ThresholdPoint(1.0, 0, 10, 0.0, 0.0, 0.28),   # confidently below
            ThresholdPoint(3.0, 10, 10, 1.0, 0.72, 1.0),  # confidently above
        ]
        lo, hi = _wilson_band(points, 0.5, 0.0, 4.0)
        assert lo <= hi


# ----------------------------------------------------------------------
# Replication-level Bernoulli (repro.stats.campaign)
# ----------------------------------------------------------------------
def _summary(assurance, requirements):
    return ReplicationSummary(
        seed=0, metrics={}, assurance=assurance, requirements=requirements,
    )


class TestReplicationSuccess:
    REQ = {"T0": [1.0, 0.9], "T1": [1.0, 0.9]}

    def test_all_tasks_attained(self):
        s = _summary({"EDF": {"T0": [9, 10], "T1": [10, 10]}}, self.REQ)
        assert _replication_success(s, "EDF") is True

    def test_one_task_missing_rho_fails(self):
        s = _summary({"EDF": {"T0": [8, 10], "T1": [10, 10]}}, self.REQ)
        assert _replication_success(s, "EDF") is False

    def test_exact_rho_boundary_counts_as_success(self):
        s = _summary({"EDF": {"T0": [9, 10]}}, {"T0": [1.0, 0.9]})
        assert _replication_success(s, "EDF") is True

    def test_censored_replication_is_none(self):
        s = _summary({"EDF": {"T0": [0, 0]}}, {"T0": [1.0, 0.9]})
        assert _replication_success(s, "EDF") is None

    def test_missing_scheduler_is_none(self):
        s = _summary({}, self.REQ)
        assert _replication_success(s, "EDF") is None


# ----------------------------------------------------------------------
# The driver, end to end (tiny but real)
# ----------------------------------------------------------------------
TINY = ThresholdConfig(
    schedulers=("EUA*", "EDF"),
    shapes=(ArrivalShape("poisson"),),
    load_lo=0.5,
    load_hi=3.5,
    coarse_points=4,
    refine_iters=1,
    n_replications=6,
    horizon=0.5,
)


class TestRunThreshold:
    def test_curves_cover_every_scheduler_shape_pair(self):
        result = run_threshold(TINY)
        assert {(c.scheduler, c.shape.name) for c in result.curves} == {
            ("EUA*", "poisson"), ("EDF", "poisson"),
        }
        assert result.curve("EUA*", "poisson").points

    def test_memoisation_shares_campaigns_across_schedulers(self):
        result = run_threshold(TINY)
        # 4 coarse points + at most refine_iters bisections per scheduler,
        # but both schedulers share evaluations at identical loads.
        assert result.n_campaigns <= TINY.coarse_points + 2 * TINY.refine_iters
        assert result.n_simulated == result.n_campaigns * TINY.n_replications

    def test_deterministic_across_runs(self):
        a, b = run_threshold(TINY), run_threshold(TINY)
        assert a.rows() == b.rows()
        assert [c.points for c in a.curves] == [c.points for c in b.curves]

    def test_threshold_lies_in_the_sweep_range(self):
        result = run_threshold(TINY)
        for c in result.curves:
            assert TINY.load_lo <= c.threshold <= TINY.load_hi
            assert TINY.load_lo <= c.ci_low <= c.ci_high <= TINY.load_hi
            assert c.width >= 0.0

    def test_probability_curve_starts_high(self):
        result = run_threshold(TINY)
        for c in result.curves:
            assert c.points[0].probability == 1.0

    def test_metrics_and_directions_agree(self):
        result = run_threshold(TINY)
        metrics, directions = result.metrics(), result.directions()
        assert set(metrics) == set(directions)
        for key in metrics:
            assert directions[key] == (
                "higher" if key.startswith("threshold[") else "lower"
            )

    def test_unknown_curve_raises(self):
        result = run_threshold(TINY)
        with pytest.raises(KeyError):
            result.curve("DASA", "poisson")


class TestArtifact:
    def test_schema_matches_the_gate(self, tmp_path):
        result = run_threshold(TINY)
        path = write_bench_artifact("t_test", result.metrics(), result.directions(),
                                    result.meta(), directory=str(tmp_path))
        payload = json.loads(path.read_text())
        assert path.name == "BENCH_t_test.json"
        assert payload["name"] == "t_test"
        assert set(payload) == {"name", "metrics", "directions", "meta"}
        assert payload["metrics"] and set(payload["metrics"]) == set(payload["directions"])
        for key in ("schedulers", "shapes", "n_replications", "base_seed",
                    "python", "platform", "cpu_count"):
            assert key in payload["meta"]
        assert payload["directions"] == result.directions()

    def test_env_var_directory(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_ARTIFACTS", str(tmp_path / "art"))
        result = run_threshold(TINY)
        path = write_bench_artifact("t_env", result.metrics(), result.directions())
        assert path.parent == tmp_path / "art"
        assert path.exists()

    def test_stamps_the_source_revision(self, tmp_path):
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=Path(repro.__file__).parent,
                capture_output=True, text=True, check=True,
            ).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pytest.skip("package not loaded from a git checkout")
        path = write_bench_artifact("t_git", {"m": 1.0}, directory=tmp_path)
        meta = json.loads(path.read_text())["meta"]
        assert meta["git_sha"] == sha
        assert isinstance(meta["git_dirty"], bool)


class TestRenderThreshold:
    def test_svg_has_one_series_per_curve(self):
        from repro.viz import render_threshold

        result = run_threshold(TINY)
        svg = render_threshold(result)
        assert svg.startswith("<svg")
        for c in result.curves:
            assert f"{c.scheduler} · {c.shape.name}" in svg
