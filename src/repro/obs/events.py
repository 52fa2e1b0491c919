"""Typed, structured scheduler-decision records.

EUA*'s behaviour is driven by decisions that are invisible in the final
metrics: which jobs were inserted into (or rejected from) the tentative
schedule σ and at what UER, which jobs were aborted as individually
infeasible, and which frequency ``decideFreq()`` chose from which
look-ahead window.  An :class:`EventLog` captures those decisions as
:class:`Event` records — one flat, JSON-friendly row per decision — so a
run can be replayed, diffed and aggregated offline.

The log is an *opt-in sink*: producers hold an ``Optional[EventLog]``
(via :class:`~repro.obs.observer.Observer`) and guard every emission
with an ``is not None`` check, so a disabled log costs one predictable
branch per site.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Union

__all__ = ["Event", "EventKind", "EventLog", "FieldValue"]

#: Values allowed in an event's ``fields`` mapping — JSON scalars only,
#: so every event serialises losslessly to one JSONL row.
FieldValue = Union[float, int, str, bool, None]


class EventKind(enum.Enum):
    """What happened.  Values are the stable JSONL wire names."""

    #: Engine: a job entered the ready set.
    RELEASE = "release"
    #: Scheduler: a job was inserted into the tentative schedule σ.
    INSERT = "insert"
    #: Scheduler: a job was considered for σ and left out.
    REJECT = "reject"
    #: Scheduler: a simple policy picked its head without building σ.
    SELECT = "select"
    #: Engine: the chosen job changed to a different, unfinished job.
    PREEMPT = "preempt"
    #: Scheduler (REUA): dispatch redirected from a blocked head to the
    #: end of its blocking chain.
    INHERIT = "inherit"
    #: Engine: a job was dropped on the scheduler's order.
    ABORT = "abort"
    #: Engine: a job's termination time passed while pending.
    EXPIRE = "expire"
    #: Engine: a job finished all demanded cycles.
    COMPLETE = "complete"
    #: decideFreq(): chose an operating point from a look-ahead window.
    FREQ_DECISION = "freq_decision"
    #: Engine: the processor actually changed operating point.
    FREQ_SWITCH = "freq_switch"
    #: Engine: a different job started executing.
    DISPATCH = "dispatch"
    #: MP engine (global): a job resumed execution on a different core
    #: than the one it last ran on.
    MIGRATE = "migrate"
    #: Runtime: observed demand drifted away from the declared moments.
    DRIFT_DETECTED = "drift_detected"
    #: Runtime: per-task parameters re-derived from observed moments.
    REALLOCATION = "reallocation"
    #: Runtime: an arrival exceeded its task's UAM envelope ``<a, P>``.
    UAM_VIOLATION = "uam_violation"
    #: Runtime: admission control shed, deferred or evicted work.
    ADMISSION_DECISION = "admission_decision"
    #: Checker: a machine-checked scheduling invariant failed.
    INVARIANT_VIOLATION = "invariant_violation"


@dataclass(frozen=True)
class Event:
    """One structured decision record.

    ``seq`` disambiguates same-instant events (the engine routinely
    emits several at one simulation time) and makes the log totally
    ordered; the :class:`EventLog` assigns it.
    """

    seq: int
    time: float
    kind: EventKind
    job: Optional[str] = None
    source: str = "engine"
    fields: Dict[str, FieldValue] = field(default_factory=dict)


class EventLog:
    """Append-only, chronological log of :class:`Event` records."""

    __slots__ = ("events",)

    def __init__(self) -> None:
        self.events: List[Event] = []

    # ------------------------------------------------------------------
    def emit(
        self,
        time: float,
        kind: EventKind,
        job: Optional[str] = None,
        source: str = "engine",
        **fields: FieldValue,
    ) -> None:
        self.events.append(Event(len(self.events), time, kind, job, source, fields))

    def append(self, event: Event) -> None:
        """Append a pre-built record (deserialisation path)."""
        self.events.append(event)

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[Event]:
        return iter(self.events)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EventLog):
            return NotImplemented
        return self.events == other.events

    # ------------------------------------------------------------------
    def of_kind(self, kind: EventKind) -> List[Event]:
        return [e for e in self.events if e.kind is kind]

    def for_job(self, job_key: str) -> List[Event]:
        return [e for e in self.events if e.job == job_key]

    def is_time_ordered(self) -> bool:
        """Times never decrease (sequence numbers break same-time ties)."""
        return all(
            a.time <= b.time for a, b in zip(self.events, self.events[1:])
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"EventLog({len(self.events)} events)"
