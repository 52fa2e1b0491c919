"""Golden-trace regression: replay the frozen workloads and diff.

Each committed JSONL file under ``tests/golden/`` is the full
structured decision/event log of one scheduler over the fixed-seed
Table-1 workload (see ``_harness``).  The replay must reproduce every
event exactly — sequence numbers, times, kinds, job keys, and every
float in the ``fields`` payload.  A diff means scheduler behaviour
changed; if the change is intentional, regenerate with
``python tests/golden/regenerate.py`` and justify it in the commit.
"""

import json

import pytest

from ._harness import (
    ADAPTIVE_LABEL,
    CASES,
    SVC_GOLDEN,
    diff_events,
    golden_path,
    parse_jsonl,
    record_events_jsonl,
    record_svc_session,
)


@pytest.mark.parametrize("label", sorted(CASES))
def test_golden_file_exists_and_is_valid_jsonl(label):
    path = golden_path(label)
    assert path.exists(), f"missing golden trace {path}; run tests/golden/regenerate.py"
    events = parse_jsonl(path.read_text())
    assert events, f"{path} is empty"
    for event in events:
        assert event["type"] == "event"
        assert "seq" in event and "time" in event and "kind" in event


@pytest.mark.parametrize("label", sorted(CASES))
def test_replay_matches_golden(label):
    expected = parse_jsonl(golden_path(label).read_text())
    actual = parse_jsonl(record_events_jsonl(label))
    problems = diff_events(expected, actual)
    assert not problems, (
        f"{label} replay diverged from the golden trace:\n  " + "\n  ".join(problems)
    )


@pytest.mark.parametrize("label", sorted(CASES))
def test_replay_is_itself_deterministic(label):
    """Two replays in one process must serialise identically — guards
    against nondeterminism sneaking into the harness itself (shared RNG,
    cache-order leakage into event payloads, ...)."""
    assert record_events_jsonl(label) == record_events_jsonl(label)


def test_golden_traces_differ_across_schedulers():
    """Sanity: the four policies do not share one behaviour (a harness
    bug that ran the same scheduler four times would pass the diffs)."""
    texts = {label: golden_path(label).read_text() for label in CASES}
    assert texts["EUA*"] != texts["EDF"]
    assert texts["DASA"] != texts["EDF"]
    # EUA* and REUA with an empty resource map agree on decisions by
    # design (no blockers to charge) but must both be present and valid.
    assert json.loads(texts["REUA"].splitlines()[0])["type"] == "event"


def test_adaptive_golden_contains_runtime_events():
    """The adaptive case exists to freeze the runtime layer's behaviour:
    its golden log must actually exercise that layer, not degenerate into
    a plain EUA* trace."""
    kinds = {e["kind"] for e in parse_jsonl(golden_path(ADAPTIVE_LABEL).read_text())}
    assert "drift_detected" in kinds
    assert "reallocation" in kinds
    assert "admission_decision" in kinds


def test_svc_session_matches_golden():
    """The service's ``/events`` wire format, byte for byte: a scripted
    literal-time ``ServiceCore`` session through admit, UAM shed,
    deferral and grant, admission reject and evict, partial advance,
    completion, a scheduler abort and expiry."""
    text = record_svc_session()
    if text != SVC_GOLDEN.read_text():
        problems = diff_events(parse_jsonl(SVC_GOLDEN.read_text()), parse_jsonl(text))
        pytest.fail("service session diverged from the golden trace:\n  "
                    + "\n  ".join(problems or ["serialisation differs"]))
