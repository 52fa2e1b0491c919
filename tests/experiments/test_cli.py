"""Tests for the command-line interface (repro.cli)."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_figure2_defaults(self):
        args = build_parser().parse_args(["figure2"])
        assert args.energy == "E1"

    def test_figure2_rejects_bad_energy(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure2", "--energy", "E9"])

    def test_load_seed_overrides(self):
        args = build_parser().parse_args(
            ["figure2", "--loads", "0.4", "0.8", "--seeds", "1", "2"]
        )
        assert args.loads == [0.4, 0.8]
        assert args.seeds == [1, 2]


class TestCommands:
    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "A1" in out and "A3" in out

    def test_table2(self, capsys):
        assert main(["table2"]) == 0
        out = capsys.readouterr().out
        assert "E3" in out and "E(1000)" in out

    def test_schedulers(self, capsys):
        assert main(["schedulers"]) == 0
        out = capsys.readouterr().out
        assert "EUA*" in out

    def test_figure2_mini(self, capsys):
        rc = main(["figure2", "--loads", "0.4", "--seeds", "11", "--horizon", "1.0"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "EUA*" in out and "norm_energy" in out

    def test_figure3_mini(self, capsys):
        rc = main(["figure3", "--loads", "0.6", "--seeds", "11", "--horizon", "1.0"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "norm_energy" in out

    def test_theorems(self, capsys):
        rc = main(["theorems", "--load", "0.5"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Theorem 2" in out
        assert "True" in out


class TestNewCommands:
    def test_simulate(self, capsys):
        rc = main(["simulate", "--load", "1.2", "--horizon", "1.0",
                   "--schedulers", "EUA*", "EDF"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "norm_utility" in out and "EUA*" in out

    def test_linear_tuf_at_full_nu_is_a_usage_error(self, capsys):
        # The default --nu 1.0 gives a linear TUF a zero critical time.
        rc = main(["simulate", "--tuf", "linear", "--horizon", "0.5"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("repro-eua simulate: error: task ")
        assert "nu=1.0" in err and "LinearTUF" in err

    def test_simulate_unknown_scheduler(self, capsys):
        rc = main(["simulate", "--horizon", "0.5", "--schedulers", "bogus"])
        assert rc == 2
        err = capsys.readouterr().err.strip()
        assert err.startswith("repro-eua simulate: error: unknown scheduler 'bogus'")
        assert "\n" not in err and "EUA*" in err

    def test_stats_unknown_scheduler(self, capsys):
        rc = main(["stats", "-n", "2", "--horizon", "0.5", "--schedulers", "EUA*", "bogus"])
        assert rc == 2
        err = capsys.readouterr().err.strip()
        assert err.startswith("repro-eua stats: error: unknown scheduler 'bogus'")

    def test_bound(self, capsys):
        rc = main(["bound", "--load", "0.5", "--horizon", "1.0"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "YDS" in out and "ratio" in out

    def test_ablate_dvs(self, capsys):
        rc = main(["ablate", "dvs", "--seeds", "11", "--horizon", "1.0"])
        assert rc == 0
        assert "energy_ratio" in capsys.readouterr().out

    def test_ablate_fopt(self, capsys):
        rc = main(["ablate", "fopt", "--seeds", "11", "--horizon", "1.0"])
        assert rc == 0
        assert "with_fopt" in capsys.readouterr().out

    def test_ablate_rejects_unknown(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["ablate", "everything"])

    def test_figure3_svg_output(self, capsys, tmp_path):
        path = str(tmp_path / "f3.svg")
        rc = main(["figure3", "--loads", "0.6", "--seeds", "11",
                   "--horizon", "0.5", "--svg", path])
        assert rc == 0
        with open(path) as fh:
            assert fh.read().startswith("<svg")

    def test_figure2_svg_output(self, capsys, tmp_path):
        base = str(tmp_path / "f2.svg")
        rc = main(["figure2", "--loads", "0.6", "--seeds", "11",
                   "--horizon", "0.5", "--svg", base])
        assert rc == 0
        import os
        assert os.path.exists(str(tmp_path / "f2_utility.svg"))
        assert os.path.exists(str(tmp_path / "f2_energy.svg"))

    def test_check_command(self, capsys):
        rc = main(["check", "--load", "0.6", "--horizon", "0.5"])
        assert rc == 0
        assert "invariants: all clean" in capsys.readouterr().out

    def test_sensitivity_ladder(self, capsys):
        rc = main(["sensitivity", "ladder", "--seeds", "11", "--horizon", "0.5"])
        assert rc == 0
        assert "levels" in capsys.readouterr().out

    def test_sensitivity_rejects_unknown(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sensitivity", "everything"])


class TestProfileAndSpans:
    """The time-attribution surface: profile subcommand + span flags."""

    def test_profile_prints_phase_report(self, capsys):
        rc = main(["profile", "--load", "0.8", "-n", "4",
                   "--horizon", "0.5", "--workers", "1"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "phase table" in out
        assert "campaign.simulate" in out
        assert "wall-clock" in out
        assert "reps/s" in out

    def test_profile_jsonl_out_roundtrips(self, tmp_path, capsys):
        from repro.obs import phase_report_from_jsonl, phase_report_to_jsonl

        target = tmp_path / "profile.jsonl"
        rc = main(["profile", "--load", "0.8", "-n", "2",
                   "--horizon", "0.5", "--jsonl-out", str(target)])
        assert rc == 0
        text = target.read_text()
        report = phase_report_from_jsonl(text)
        assert phase_report_to_jsonl(report) == text
        assert report.phase_total("campaign.simulate") > 0.0

    def test_profile_dashboard_svg(self, tmp_path, capsys):
        import xml.etree.ElementTree as ET

        target = tmp_path / "profile.svg"
        rc = main(["profile", "--load", "0.8", "-n", "2",
                   "--horizon", "0.5", "--dashboard", str(target)])
        assert rc == 0
        root = ET.fromstring(target.read_text())
        assert root.tag.endswith("svg")

    def test_stats_spans_flag_appends_report(self, capsys):
        rc = main(["stats", "--load", "0.8", "-n", "2",
                   "--horizon", "0.5", "--rho", "0.5", "--spans"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "campaign verdict:" in out
        assert "phase table" in out

    def test_stats_dashboard_implies_spans(self, tmp_path, capsys):
        target = tmp_path / "stats.svg"
        rc = main(["stats", "--load", "0.8", "-n", "2", "--horizon", "0.5",
                   "--rho", "0.5", "--dashboard", str(target)])
        assert rc == 0
        assert target.exists()

    def test_obs_prints_phase_table(self, capsys):
        rc = main(["obs", "--load", "0.4", "--horizon", "0.5", "--repeats", "2"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "counters" in out  # the metrics summary
        assert "phase table" in out
        # The table reaches inside engine.decide, indented per level.
        assert "\n  engine.decide " in out
        assert "\n    core.eua_construct " in out
        assert "\n      core.eua_feasibility " in out
        assert "\n    core.eua_decide_freq " in out
        assert "phase self-times cover 100.0%" in out

    def test_obs_has_no_spans_flag(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["obs", "--spans"])
        target = tmp_path / "obs.svg"
        assert main(["obs", "--load", "0.4", "--horizon", "0.5",
                     "--dashboard", str(target)]) == 0
        assert target.exists()


class TestArrivalShapes:
    def test_arrivals_lists_the_registry(self, capsys):
        assert main(["arrivals"]) == 0
        out = capsys.readouterr().out
        for name in ("nhpp-diurnal", "flash-crowd", "pareto"):
            assert name in out

    def test_arrivals_arg_parses_name_and_params(self):
        args = build_parser().parse_args(
            ["simulate", "--arrivals", "nhpp-diurnal:peak_frac=0.25"]
        )
        assert args.arrivals.name == "nhpp-diurnal"
        assert dict(args.arrivals.params) == {"peak_frac": 0.25}

    def test_arrivals_arg_rejects_unknown_shape(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "--arrivals", "nope"])

    def test_simulate_with_registry_shape(self, capsys):
        rc = main(["simulate", "--load", "0.6", "--horizon", "0.5",
                   "--arrivals", "flash-crowd", "--schedulers", "EDF"])
        assert rc == 0
        assert "EDF" in capsys.readouterr().out

    def test_check_with_registry_shape(self, capsys):
        rc = main(["check", "--load", "0.6", "--horizon", "0.5",
                   "--arrivals", "pareto:alpha=2.0"])
        assert rc == 0
        assert "all clean" in capsys.readouterr().out

    def test_stats_with_registry_shape(self, capsys):
        rc = main(["stats", "--load", "0.5", "--horizon", "0.5", "-n", "4",
                   "--arrivals", "nhpp-diurnal", "--rho", "0.5"])
        out = capsys.readouterr().out
        assert rc in (0, 1)  # verdict depends on the tiny sample
        assert "EUA*" in out

    def test_fuzz_registry_shapes_flag(self, capsys):
        rc = main(["fuzz", "--budget", "4", "--seed", "5", "--no-corpus",
                   "--registry-shapes"])
        assert rc == 0
        assert "4/4 scenarios" in capsys.readouterr().out


class TestThresholdCommand:
    TINY = ["threshold", "--schedulers", "EDF", "--shapes", "poisson",
            "--load-range", "0.5", "3.5", "--points", "3", "--refine", "1",
            "-n", "4", "--horizon", "0.5"]

    def test_tiny_sweep_prints_the_table(self, capsys):
        assert main(self.TINY) == 0
        out = capsys.readouterr().out
        assert "threshold" in out and "width" in out
        assert "EDF" in out and "poisson" in out

    def test_smoke_flag_parses(self):
        args = build_parser().parse_args(["threshold", "--smoke"])
        assert args.smoke and args.func is not None

    def test_svg_and_bench_outputs(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_ARTIFACTS", str(tmp_path))
        svg = tmp_path / "phase.svg"
        rc = main(self.TINY + ["--svg", str(svg), "--bench",
                               "--bench-name", "t_cli"])
        assert rc == 0
        assert svg.read_text().startswith("<svg")
        assert (tmp_path / "BENCH_t_cli.json").exists()

    def test_verbose_logs_campaign_evaluations(self, capsys):
        assert main(self.TINY + ["--verbose"]) == 0
        assert "coarse sweep" in capsys.readouterr().out

    def test_rejects_bad_load_range(self):
        with pytest.raises(ValueError):
            main(self.TINY[:0] + ["threshold", "--load-range", "3.0", "1.0"])
