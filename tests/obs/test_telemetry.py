"""Telemetry collection and PhaseReport assembly / wire round-trips."""

import pytest

from repro.obs import (
    PhaseReport,
    SpanTracer,
    Telemetry,
    build_phase_report,
    phase_report_from_jsonl,
    phase_report_to_jsonl,
)


def _traced_telemetry() -> Telemetry:
    """A small synthetic capture with tree, lanes and counters."""
    telemetry = Telemetry()
    tr = telemetry.tracer
    with tr.span("campaign"):
        with tr.span("campaign.plan"):
            pass
        with tr.span("campaign.simulate"):
            pass
    telemetry.interval("pid-1", 0.0, 0.4)
    telemetry.interval("pid-2", 0.1, 0.3)
    telemetry.interval("pid-1", 0.5, 0.6)
    telemetry.count("campaign.reps_simulated", 8)
    telemetry.count("campaign.cache_hits", 3)
    telemetry.count("campaign.cache_misses", 1)
    return telemetry


def test_counters_accumulate_and_default_to_zero():
    telemetry = Telemetry()
    assert telemetry.counter_value("missing") == 0.0
    telemetry.count("x")
    telemetry.count("x", 2.5)
    assert telemetry.counter_value("x") == 3.5


def test_merge_combines_all_three_channels():
    a, b = Telemetry(), Telemetry()
    with a.tracer.span("p"):
        pass
    with b.tracer.span("p"):
        pass
    a.count("n", 1)
    b.count("n", 2)
    b.interval("w", 0.0, 1.0)
    a.merge(b)
    assert len(a.tracer) == 2
    assert a.counter_value("n") == 3.0
    assert len(a.intervals) == 1


def test_build_report_lanes_and_rates():
    report = build_phase_report(_traced_telemetry())
    assert report.version == 1
    # Lanes: sorted by worker, busy summed over intervals.
    assert [w.worker for w in report.workers] == ["pid-1", "pid-2"]
    pid1 = report.workers[0]
    assert pid1.busy == pytest.approx(0.5)
    assert len(pid1.intervals) == 2
    # Rates from the counters.
    assert report.cache_hit_rate == pytest.approx(0.75)
    simulate = report.phase("campaign/campaign.simulate")
    assert simulate is not None
    assert report.reps_per_second == pytest.approx(8.0 / simulate.total)
    # Counters survive into the report verbatim.
    assert report.counters["campaign.reps_simulated"] == 8.0


def test_build_report_wall_clock_defaults_to_root_span():
    telemetry = _traced_telemetry()
    report = build_phase_report(telemetry)
    root = max(telemetry.tracer.spans, key=lambda s: s.duration)
    assert report.wall_clock == pytest.approx(root.duration)
    assert report.coverage() == pytest.approx(1.0, abs=0.10)


def test_merged_tracer_wall_clock_sums_the_roots():
    """A tracer merged from several single-root runs spans all of them:
    the wall-clock is the summed root durations, not the longest root,
    so the phase self-times still cover it exactly once."""
    merged = SpanTracer()
    for _ in range(3):
        run = SpanTracer()
        with run.span("engine.run"):
            with run.span("engine.decide"):
                sum(range(20000))
            sum(range(20000))
        merged.merge(run)
    report = build_phase_report(merged)
    roots = [s.duration for s in merged.spans if s.depth == 0]
    assert len(roots) == 3
    assert report.wall_clock == pytest.approx(sum(roots))
    assert report.coverage() == pytest.approx(1.0, abs=1e-6)


def test_phase_total_sums_by_leaf_name():
    report = build_phase_report(_traced_telemetry())
    assert report.phase_total("campaign.simulate") == pytest.approx(
        report.phase("campaign/campaign.simulate").total
    )
    assert report.phase_total("absent") == 0.0


def test_phase_report_jsonl_roundtrip_bit_identical():
    report = build_phase_report(_traced_telemetry())
    text = phase_report_to_jsonl(report)
    rebuilt = phase_report_from_jsonl(text)
    assert rebuilt == report
    assert phase_report_to_jsonl(rebuilt) == text


def test_phase_report_version_mismatch_fails_loudly():
    report = build_phase_report(_traced_telemetry())
    payload = report.to_dict()
    payload["version"] = 2
    with pytest.raises(ValueError, match="version 2"):
        PhaseReport.from_dict(payload)


def test_render_mentions_phases_lanes_and_rates():
    report = build_phase_report(_traced_telemetry())
    text = report.render()
    assert "campaign.simulate" in text
    assert "pid-2" in text
    assert "cache hit rate 75.0%" in text
    assert "wall-clock" in text
