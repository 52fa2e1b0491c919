"""Tests of the benchmark itself (``PYTHONPATH=src python -m pytest benchmarks/suite``).

Workloads run here at a reduced size; the point is the reporting and
checking machinery, not the numbers.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

import compare
import run
import speed
import workloads
from workloads import (BurstOverload, Check, McCampaign, MpGlobal, SvcIngest, SvcStream,
                       step_checks)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
#: End-to-end metrics a workload measures itself; ``peak_rss_mb`` and
#: ``setup_s`` are measured around it by worker.py and run.py.
MEASURED = {"throughput"}
#: (workload class, seconds) at a size that runs in a second or two.
SMALL = [(McCampaign, 0.2), (BurstOverload, 0.1), (MpGlobal, 0.1),
         (SvcIngest, 1.6), (SvcStream, 0.6)]
#: Input sizes of the small runs.
SIZES = {McCampaign: dict(REPLICATIONS=6),
         BurstOverload: dict(INSTANCES=1, HORIZON=0.2, JOBS_PER_TRACE=128),
         MpGlobal: dict(INSTANCES=1, HORIZON=1.0, JOBS_PER_TRACE=86)}


def small(cls, tmp_path, seed=workloads.DEFAULT_SEED, **sizes):
    """``cls`` at a reduced input size, set up; its own name keeps the
    default-size pins from applying."""
    attrs = dict(SIZES.get(cls, {}), name=cls.name + "-small", **sizes)
    workload = type(cls.__name__, (cls,), attrs)(seed=seed, root=ROOT, work_dir=tmp_path)
    workload.setup()
    return workload


def measure_small(cls, seconds, tmp_path, trace=False, **kwargs):
    workload = small(cls, tmp_path, **kwargs)
    try:
        return workloads.measure(workload, seconds, trace)
    finally:
        workload.close()


# ----------------------------------------------------------------------
# Every workload reports every metric, with valid names and units
# ----------------------------------------------------------------------
def test_metric_names_and_units_are_valid():
    names = [m[0] for m in workloads.END_TO_END] + [m[0] for m in workloads.PER_LAYER]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for unit in [m[1] for m in workloads.END_TO_END] + [m[1] for m in workloads.PER_LAYER]:
        assert UNIT.fullmatch(unit), unit
    assert MEASURED | {"peak_rss_mb", "setup_s"} == {m[0] for m in workloads.END_TO_END}


@pytest.mark.parametrize("cls,seconds", SMALL, ids=[c.name for c, _ in SMALL])
def test_untraced_run_reports_end_to_end_metrics(cls, seconds, tmp_path):
    report = measure_small(cls, seconds, tmp_path)
    assert set(report["metrics"]) == MEASURED
    for name, value in report["metrics"].items():
        assert math.isfinite(value) and value > 0, (name, value)
    assert report["failed"] == 0, report["checks"]
    assert report["attempted"] >= len(report["checks"]) + 1


@pytest.mark.parametrize("cls,seconds", SMALL, ids=[c.name for c, _ in SMALL])
def test_traced_run_reports_per_layer_metrics(cls, seconds, tmp_path):
    report = measure_small(cls, seconds, tmp_path, trace=True)
    assert list(report["metrics"]) == [name for name, _unit, _better in workloads.PER_LAYER]
    assert report["failed"] == 0, report["checks"]
    assert report["metrics"]["core.eua_decide_calls"] > 0
    assert report["metrics"]["trace.coverage"] >= 0.9
    assert report["raw_spans"] and all(raw for _process, raw in report["raw_spans"])


def test_tracing_restores_the_package(tmp_path):
    from repro.core.eua import EUAStar
    from repro.sim import runner

    before = (EUAStar.decide, runner.simulate)
    measure_small(BurstOverload, 0.1, tmp_path, trace=True)
    assert (EUAStar.decide, runner.simulate) == before


# ----------------------------------------------------------------------
# Determinism
# ----------------------------------------------------------------------
def test_deterministic_metrics_repeat_exactly(tmp_path):
    a = measure_small(MpGlobal, 0.1, tmp_path)
    b = measure_small(MpGlobal, 0.1, tmp_path)
    other = measure_small(MpGlobal, 0.1, tmp_path, seed=23)
    assert set(a["quality"]) == {"norm_utility", "norm_energy", "utility_ratio"}
    assert a["quality"] == b["quality"]
    assert other["quality"] != a["quality"]


def test_frozen_service_does_the_same_work_every_run(tmp_path):
    """The closed loop's admission outcomes follow the inputs, not timing."""
    a = measure_small(SvcIngest, 1.0, tmp_path)["diagnostics"]["closed_loop"]
    b = measure_small(SvcIngest, 1.0, tmp_path)["diagnostics"]["closed_loop"]
    keys = ("sent", "admitted", "completed", "events")
    assert [a[k] for k in keys] == [b[k] for k in keys]
    assert a["completed"] == a["sent"]


@pytest.mark.parametrize("cls", [BurstOverload, MpGlobal], ids=lambda c: c.name)
def test_traces_hold_the_same_work_at_every_seed(cls, tmp_path):
    """At full trace size (set-up builds traces, it does not simulate)."""
    for seed in (11, 23):
        workload = small(cls, tmp_path, seed=seed, HORIZON=cls.HORIZON,
                         JOBS_PER_TRACE=cls.JOBS_PER_TRACE)
        jobs = len(workload.traces[0].jobs)
        assert abs(jobs - cls.JOBS_PER_TRACE) <= 0.05 * cls.JOBS_PER_TRACE, (seed, jobs)


def test_pins_hold_at_the_default_seed_only(monkeypatch):
    monkeypatch.setitem(workloads.PINS, "x", {"norm_utility": 0.5})
    good = workloads._pin_check("x", workloads.DEFAULT_SEED, {"norm_utility": 0.5})
    bad = workloads._pin_check("x", workloads.DEFAULT_SEED, {"norm_utility": 0.5000001})
    assert [c.ok for c in good] == [True]
    assert [c.ok for c in bad] == [False]
    assert workloads._pin_check("x", 23, {"norm_utility": 0.1}) == []
    assert workloads._pin_check("y", workloads.DEFAULT_SEED, {"norm_utility": 0.1}) == []


# ----------------------------------------------------------------------
# Each correctness check fires on tampered input
# ----------------------------------------------------------------------
def _replay(**kw):
    base = dict(statuses={200: 3, 429: 1}, sent=4)
    base.update(kw)
    return SimpleNamespace(**base)


STATS = dict(submitted=4, admitted=2, deferred=1, shed_uam=1, rejected=0)


def _failed(checks):
    return {c.name for c in checks if not c.ok}


def test_step_checks_pass_on_consistent_input():
    reader = SimpleNamespace(statuses={200: 7}, cursor=40, errors=0)
    assert _failed(step_checks(_replay(), STATS, reader, events=40)) == set()


@pytest.mark.parametrize("replay,stats,failed", [
    (_replay(statuses={200: 3, 500: 1}), STATS, {"statuses-200-429"}),
    (_replay(), dict(STATS, submitted=5, admitted=3), {"all-submissions-counted"}),
    (_replay(), dict(STATS, rejected=1), {"stats-balance"}),
    (_replay(sent=5), STATS, {"all-submissions-counted"}),
])
def test_step_checks_fire(replay, stats, failed):
    assert _failed(step_checks(replay, stats)) == failed


def test_reference_check_fires():
    assert _failed(step_checks(_replay(), STATS, reference=_replay(statuses={200: 4}))) == set()
    short = _replay(statuses={200: 3})
    assert _failed(step_checks(_replay(), STATS, reference=short)) == {"reference-answered"}


def test_merged_replays_count_from_the_first_start():
    from svcload import Replay

    a = Replay(start=10.0, records=[(0.0, 0.0, 0.5)], statuses={200: 1}, offered_utility=1.0,
               wall_s=0.5)
    b = Replay(start=11.0, records=[(0.0, 0.1, 0.2)], statuses={200: 1, 429: 1},
               transport_errors=1, offered_utility=2.0, wall_s=1.0)
    merged = Replay.merged([a, b])
    assert merged.records == [(0.0, 0.0, 0.5), (1.0, 1.1, 1.2)]
    assert merged.statuses == {200: 2, 429: 1}
    assert (merged.transport_errors, merged.offered_utility, merged.wall_s) == (1, 3.0, 2.0)


def test_stream_checks_fire():
    lost = SimpleNamespace(statuses={200: 7}, cursor=39, errors=0)
    assert _failed(step_checks(_replay(), STATS, lost, events=40)) == {"stream-complete"}
    broken = SimpleNamespace(statuses={200: 6, 404: 1}, cursor=40, errors=0)
    assert _failed(step_checks(_replay(), STATS, broken, events=40)) == {"stream-statuses-200"}


def test_mp_invariant_check_fires(tmp_path):
    workload = small(MpGlobal, tmp_path)
    results = workload._simulate(workload.traces[0])
    assert _failed(workload._check([results])) == set()
    results["EUA*"].migrations += 1
    assert _failed(workload._check([results])) == {"mp-invariants"}


def test_burst_invariant_check_fires(tmp_path):
    from repro.check.mutations import flipped_uer_order

    workload = small(BurstOverload, tmp_path, INSTANCES=2, HORIZON=0.6)
    assert _failed(workload._check([])) == set()
    with flipped_uer_order():
        assert _failed(workload._check([])) == {"invariants-eua"}


def test_campaign_checks_fire(tmp_path, monkeypatch):
    import dataclasses

    import repro.stats

    real = repro.stats.run_campaign
    calls = []

    def tampered(config, **kwargs):
        # From the second campaign on, one replication short.
        calls.append(config)
        if len(calls) > 1:
            config = dataclasses.replace(config, n_replications=config.n_replications - 1)
        return real(config, **kwargs)

    monkeypatch.setattr(repro.stats, "run_campaign", tampered)
    outcome = small(McCampaign, tmp_path).run(0.0)
    assert len(calls) == workloads.MIN_CAMPAIGNS
    assert _failed(outcome.checks) == {"campaigns-identical", "replications-complete"}


def test_repeated_passes_must_agree(tmp_path):
    class Drifting(MpGlobal):
        calls = 0

        def _simulate(self, trace):
            Drifting.calls += 1
            # From the second pass on, every slot simulates the other trace.
            if Drifting.calls > len(self.traces):
                trace = self.traces[(self.traces.index(trace) + 1) % len(self.traces)]
            return super()._simulate(trace)

    workload = small(Drifting, tmp_path, INSTANCES=2, HORIZON=1.0, JOBS_PER_TRACE=86)
    assert len(workload.traces) == 2
    outcome = workload.run(0.5)
    assert min(outcome.diagnostics["simulations"]) >= 2
    assert _failed(outcome.checks) == {"repeats-identical"}


def test_failed_counts_checks_and_transport_errors():
    outcome = workloads.Outcome(1.0, operations=10, errors=2,
                                checks=[Check("a", True), Check("b", False)])
    assert outcome.failed == 3


# ----------------------------------------------------------------------
# Host-speed scaling and windows
# ----------------------------------------------------------------------
def test_host_factor_scales_by_the_probes_trimmed_mean():
    with speed.Host([speed.usable_cpus()[0]]) as host:
        pass
    # Replace the probe readings: 2x nominal up to t=10, nominal after.
    times = [i * 0.01 for i in range(2000)]
    durations = [2 * speed.NOMINAL_S if t < 10 else speed.NOMINAL_S for t in times]
    host._samples = [(times, durations)]
    assert host.factor(2.0, 3.0) == pytest.approx(2.0)
    assert host.nominal(2.0, 3.0) == pytest.approx(0.5)
    assert host.nominal(12.0, 13.0) == pytest.approx(1.0)
    # One stray sample at each end of an interval does not move it.
    durations[300] = 50 * speed.NOMINAL_S
    durations[301] = 0.0
    assert host.factor(2.0, 4.0) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        host.factor(100.0, 101.0)


def test_probe_runs_and_stops():
    with speed.Host() as host:
        time.sleep(0.2)
    assert not host._procs
    assert all(len(times) > 5 for times, _durations in host._samples)
    assert host.factor(host._samples[0][0][0], host._samples[0][0][-1]) > 0


# ----------------------------------------------------------------------
# compare.py's decision rule
# ----------------------------------------------------------------------
PARENT = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0]


def test_gain_needs_nine_in_ten_wins_and_a_gap_beyond_the_iqr():
    change = [p + 5.0 for p in PARENT]
    assert compare.verdict(PARENT, change, "higher", 0.1) == "gain"
    eight = change[:8] + PARENT[8:]  # two ties
    assert compare.verdict(PARENT, eight, "higher", 0.1) == "unchanged"
    assert compare.verdict(PARENT, change, "lower", 0.01) == "regression"


def test_ties_count_for_neither_side():
    change = list(PARENT)
    change[0] += 50.0
    assert compare.verdict(PARENT, change, "higher", 0.1) == "unchanged"


def test_wide_spread_is_unresolved_not_unchanged():
    parent = [80.0, 120.0, 90.0, 110.0, 100.0, 70.0, 130.0, 95.0, 105.0, 100.0]
    change = [p + 1.0 for p in reversed(parent)]
    assert compare.verdict(parent, change, "higher", 0.1) == "unresolved"
    # ... unless every change run reads better than every parent run.
    parent = [float(i) for i in range(1, 11)]
    change = [10.5] * 10
    assert compare.verdict(parent, change, "higher", 0.1) == "unchanged"


# ----------------------------------------------------------------------
# BENCHMARK.json and the command
# ----------------------------------------------------------------------
def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    assert spec["command"] == ["python3", "benchmarks/suite/run.py"]
    assert spec["paths"] == ["benchmarks/suite"]
    assert spec["run_seconds"] == run.DEFAULT_SECONDS
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (cls.name, cls.why) for cls in workloads.WORKLOADS.values()]
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] \
        == list(workloads.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == list(workloads.PER_LAYER)
    for metric in spec["end_to_end"]:
        assert 0 < metric["bound"] <= 0.10
    assert max(m["bound"] for m in spec["end_to_end"]) == next(
        m["bound"] for m in spec["end_to_end"] if m["name"] == "setup_s")


def test_command_prints_metrics_then_one_json_line():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "mc-campaign", "--seed", "3",
         "--seconds", "1"], capture_output=True, text=True, cwd=ROOT, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    expected = {name: unit for name, unit, _better, _bound in workloads.END_TO_END}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "suite",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "benchmarks/suite/run.py", "--workload", "mc-campaign"],
                          capture_output=True, text=True, cwd=tmp_path, timeout=60)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
