"""Lossless JSONL round-trips for traces, event logs and metrics."""

import numpy as np
import pytest

from repro.cpu import EnergyModel, FrequencyScale, Processor
from repro.core import EUAStar
from repro.demand import NormalDemand
from repro.arrivals import UAMSpec
from repro.obs import (
    EventKind,
    MetricsRegistry,
    Observer,
    events_from_jsonl,
    events_to_jsonl,
    metrics_from_jsonl,
    metrics_to_jsonl,
)
from repro.sim import Engine, Task, TaskSet, Trace, materialize
from repro.tuf import StepTUF


def _small_run(observer=None, record_trace=True, load=0.9, seed=3):
    tasks = [
        Task(f"T{i}", StepTUF(10.0 * (i + 1), w), NormalDemand(w * 60.0, w * 1e-6),
             UAMSpec(1, w))
        for i, w in enumerate((0.05, 0.13, 0.29))
    ]
    taskset = TaskSet(tasks).scaled_to_load(load, 1000.0)
    rng = np.random.default_rng(seed)
    workload = materialize(taskset, 1.5, rng)
    cpu = Processor(FrequencyScale.powernow_k6(), EnergyModel.e1())
    engine = Engine(workload, EUAStar(), cpu, record_trace=record_trace,
                    observer=observer)
    return engine.run()


def test_trace_jsonl_roundtrip_exact():
    result = _small_run()
    trace = result.trace
    assert trace.segments  # non-trivial input
    text = trace.to_jsonl()
    rebuilt = Trace.from_jsonl(text)
    assert rebuilt.segments == trace.segments  # bit-exact float round-trip
    assert rebuilt.to_jsonl() == text


def test_trace_jsonl_empty():
    assert Trace.from_jsonl(Trace().to_jsonl()) == Trace()


def test_trace_jsonl_rejects_unknown_rows():
    # Event rows belong to the EventLog JSONL; a trace holds segments only.
    for row in ('{"type": "mystery"}', '{"type": "event", "time": 0.0, "kind": "release"}'):
        with pytest.raises(ValueError):
            Trace.from_jsonl(row)


def test_event_log_jsonl_roundtrip_exact():
    obs = Observer(events=True, metrics=False)
    _small_run(observer=obs, record_trace=False)
    log = obs.events
    assert len(log) > 0
    assert len(log.of_kind(EventKind.FREQ_DECISION)) > 0
    text = events_to_jsonl(log)
    rebuilt = events_from_jsonl(text)
    assert rebuilt == log
    assert events_to_jsonl(rebuilt) == text


def test_metrics_jsonl_roundtrip():
    obs = Observer(events=False, metrics=True)
    _small_run(observer=obs, record_trace=False)
    reg = obs.metrics
    # Exercise every instrument type in the wire format.
    assert reg.counters() and reg.gauges() and reg.histograms()
    rebuilt = metrics_from_jsonl(metrics_to_jsonl(reg))
    assert {k: c.value for k, c in rebuilt.counters().items()} == \
           {k: c.value for k, c in reg.counters().items()}
    for key, g in reg.gauges().items():
        r = rebuilt.gauges()[key]
        assert (r.value, r.total, r.n) == (g.value, g.total, g.n)
    for key, h in reg.histograms().items():
        assert rebuilt.histograms()[key].samples == h.samples
    assert metrics_to_jsonl(rebuilt) == metrics_to_jsonl(reg)


def test_metrics_jsonl_rejects_unknown_rows():
    with pytest.raises(ValueError):
        metrics_from_jsonl('{"type": "summary", "name": "x"}')


def test_concatenated_metrics_jsonl_merges():
    """Concatenating two exported registries imports as their merge —
    the streaming property the JSONL format is chosen for."""
    a, b = MetricsRegistry(), MetricsRegistry()
    a.counter("aborts").inc(2.0)
    b.counter("aborts").inc(3.0)
    combined = metrics_from_jsonl(metrics_to_jsonl(a) + metrics_to_jsonl(b))
    assert combined.counter_value("aborts") == 5.0
