"""Every typed event kind must survive the JSONL wire bit-identically.

Parametrized over ``list(EventKind)`` so a future kind cannot be added
without inheriting round-trip coverage: the moment it appears in the
enum, it appears in this suite.
"""

import pytest

from repro.obs import EventKind, EventLog, events_from_jsonl, events_to_jsonl

#: Representative payloads per kind — realistic field shapes where the
#: producer is known, a generic mixed-scalar payload otherwise.  Every
#: JSON scalar type (float, int, str, bool, None) appears somewhere.
_FIELDS = {
    EventKind.RELEASE: {"task": "T1", "deadline": 0.125, "cycles": 40000},
    EventKind.INSERT: {"uer": 1234.5, "position": 2},
    EventKind.REJECT: {"uer": 0.5, "reason": "infeasible"},
    EventKind.SELECT: {"policy": "EDF"},
    EventKind.PREEMPT: {"by": "T2.j3"},
    EventKind.INHERIT: {"chain_end": "T3.j1", "depth": 2},
    EventKind.ABORT: {"reason": "individually_infeasible"},
    EventKind.EXPIRE: {"pending_cycles": 100.0},
    EventKind.COMPLETE: {"utility": 9.5, "tardy": False},
    EventKind.FREQ_DECISION: {"freq": 0.75, "window": 4, "feasible": True},
    EventKind.FREQ_SWITCH: {"from_freq": 0.5, "to_freq": 1.0},
    EventKind.DISPATCH: {"prev": None, "idle": True},
    EventKind.MIGRATE: {"core": 1, "previous_core": 0},
    EventKind.DRIFT_DETECTED: {"task": "T1", "stat": 3.2},
    EventKind.REALLOCATION: {"task": "T1", "new_rate": 8.0},
    EventKind.UAM_VIOLATION: {"task": "T2", "arrivals": 5, "bound": 3},
    EventKind.ADMISSION_DECISION: {"action": "shed", "task": "T2"},
    EventKind.INVARIANT_VIOLATION: {"invariant": "sigma_feasible"},
}


def test_payload_table_is_exhaustive():
    """Fail when a kind is added to the enum without a payload here."""
    assert set(_FIELDS) == set(EventKind)


@pytest.mark.parametrize("kind", list(EventKind), ids=lambda k: k.value)
def test_kind_roundtrips_bit_identically(kind):
    log = EventLog()
    log.emit(0.25, kind, job="T1.j0", source="test", **_FIELDS[kind])
    text = events_to_jsonl(log)
    rebuilt = events_from_jsonl(text)
    assert list(rebuilt) == list(log)
    assert events_to_jsonl(rebuilt) == text


def test_mixed_kind_log_roundtrips_in_order():
    """One log holding every kind at once: order, seq and fields hold."""
    log = EventLog()
    for i, kind in enumerate(EventKind):
        log.emit(i * 0.1, kind, job=None, source="test", **_FIELDS[kind])
    text = events_to_jsonl(log)
    rebuilt = events_from_jsonl(text)
    assert [e.kind for e in rebuilt] == list(EventKind)
    assert [e.seq for e in rebuilt] == list(range(len(EventKind)))
    assert events_to_jsonl(rebuilt) == text


def test_unknown_kind_fails_loudly():
    with pytest.raises(ValueError):
        events_from_jsonl(
            '{"type": "event", "seq": 0, "time": 0.0, "kind": "warp_core", '
            '"job": null, "source": "engine", "fields": {}}'
        )
