"""SpanTracer semantics and the engine's span-transparency contract."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "golden"))
from _harness import CASES, golden_path, record_events_jsonl  # noqa: E402

from repro.obs import Observer, Span, SpanTracer  # noqa: E402


# ----------------------------------------------------------------------
# Tracer semantics
# ----------------------------------------------------------------------
def test_nesting_paths_and_depths():
    tr = SpanTracer()
    with tr.span("root"):
        with tr.span("child"):
            with tr.span("leaf"):
                pass
        with tr.span("child"):
            pass
    assert tr.open_depth == 0
    assert [s.path for s in tr.spans] == [
        "root/child/leaf", "root/child", "root/child", "root",
    ]
    assert [s.depth for s in tr.spans] == [2, 1, 1, 0]


def test_self_time_excludes_children():
    tr = SpanTracer()
    with tr.span("root"):
        with tr.span("child"):
            pass
    root = tr.spans[-1]
    child = tr.spans[0]
    assert root.name == "root" and child.name == "child"
    assert root.self_time == pytest.approx(root.duration - child.duration)
    assert root.self_time >= 0.0


def test_self_times_tile_the_root():
    """The coverage identity: summed self-times equal the root duration."""
    tr = SpanTracer()
    with tr.span("root"):
        for _ in range(3):
            with tr.span("a"):
                with tr.span("b"):
                    pass
    root = next(s for s in tr.spans if s.name == "root")
    assert sum(s.self_time for s in tr.spans) == pytest.approx(
        root.duration, rel=1e-9
    )


def test_exit_without_enter_raises():
    with pytest.raises(RuntimeError):
        SpanTracer().exit()


def test_merge_resequences_and_preserves_stats():
    a, b = SpanTracer(), SpanTracer(worker="w1")
    with a.span("x"):
        pass
    with b.span("x"):
        pass
    a.merge(b)
    assert [s.seq for s in a.spans] == [0, 1]
    assert a.aggregate()["x"].count == 2
    assert {s.worker for s in a.spans} == {"main", "w1"}


def test_aggregate_percentiles_follow_histogram_semantics():
    tr = SpanTracer()
    for d in (1.0, 2.0, 3.0, 4.0):
        tr.spans.append(Span(len(tr.spans), "p", "p", 0, 0.0, d, d))
    stats = tr.aggregate()["p"]
    assert stats.count == 4
    assert stats.total == 10.0
    assert stats.p50 == 2.0  # nearest-rank: ceil(0.5*4) = rank 2
    assert stats.p99 == 4.0  # p99 saturates to max below n=100


# ----------------------------------------------------------------------
# Engine transparency: spans attached, behaviour unchanged
# ----------------------------------------------------------------------
@pytest.mark.parametrize("label", sorted(CASES))
def test_golden_log_bit_identical_with_spans(label):
    """Span tracing must be observe-only: with a live tracer the engine
    reproduces the committed golden decision log byte for byte."""
    with_spans = record_events_jsonl(label, spans=True)
    assert with_spans == golden_path(label).read_text()


def test_engine_spans_close_and_cover_the_run(small_taskset, platform_e1):
    import numpy as np

    from repro.obs import build_phase_report
    from repro.sched import make_scheduler
    from repro.sim import materialize, simulate

    obs = Observer(events=False, metrics=False, spans=True)
    trace = materialize(small_taskset, 0.5, np.random.default_rng(7))
    simulate(trace, make_scheduler("EUA*"), platform_e1, observer=obs)
    assert obs.spans.open_depth == 0
    paths = {s.path for s in obs.spans.spans}
    assert "engine.run" in paths
    for phase in ("release", "expiry", "snapshot", "decide", "advance",
                  "complete"):
        assert f"engine.run/engine.{phase}" in paths
    report = build_phase_report(obs.spans)
    assert report.coverage() == pytest.approx(1.0, abs=0.10)


#: Scheduler -> the phases its ``decide`` opens under ``engine.decide``.
SCHEDULER_PHASES = {
    "EUA*": ("core.eua_construct", "core.eua_construct/core.eua_feasibility",
             "core.eua_decide_freq"),
    "DASA": ("sched.dasa_construct",),
    "REUA": ("resources.reua_construct", "resources.reua_decide_freq"),
}


@pytest.mark.parametrize("label", sorted(SCHEDULER_PHASES))
def test_scheduler_spans_nest_under_engine_decide(label, small_taskset, platform_e1):
    """σ construction, feasibility probes and decideFreq are child spans
    of ``engine.decide``; the tree still tiles the run, and the event
    log and metrics are byte-identical to a run without spans."""
    import numpy as np

    from repro.obs import build_phase_report, events_to_jsonl, metrics_to_jsonl
    from repro.sim import materialize, simulate

    trace = materialize(small_taskset, 0.5, np.random.default_rng(7))
    factory = CASES[label][1]

    def run(spans):
        obs = Observer(events=True, metrics=True, spans=spans)
        simulate(trace, factory(), platform_e1, observer=obs)
        return obs

    bare, traced = run(False), run(True)
    assert traced.spans.open_depth == 0
    paths = {s.path for s in traced.spans.spans}
    for phase in SCHEDULER_PHASES[label]:
        assert f"engine.run/engine.decide/{phase}" in paths
    assert build_phase_report(traced.spans).coverage() == pytest.approx(1.0, abs=0.10)
    assert events_to_jsonl(traced.events) == events_to_jsonl(bare.events)
    assert metrics_to_jsonl(traced.metrics) == metrics_to_jsonl(bare.metrics)
