"""Execution traces — optional per-segment recording.

A :class:`Trace` is the execution timeline of one core: every
contiguous stretch of processor activity (which job ran, at which
frequency), idle stretches and DVS switch stalls included, so a
recorded run's segments tile ``[0, horizon]``.  The discrete events
(releases, completions, aborts, expiries, frequency switches) live in
the :class:`~repro.obs.EventLog` of an attached observer, not here.
Traces back the energy/cycle conservation property tests and the
Theorem 2 (EDF equivalence) checks, and make simulations debuggable.
"""

from __future__ import annotations

import json
from typing import List, NamedTuple, Optional

__all__ = ["Trace", "Segment"]


class Segment(NamedTuple):
    """A maximal interval with constant (job, frequency) state.

    ``job_key`` is ``None`` for idle intervals; ``frequency`` is the
    operating point during the interval (idle intervals keep the last
    set frequency for reference).  A plain tuple underneath, so
    ``start, end, job_key, frequency = seg`` unpacks it.
    """

    start: float
    end: float
    job_key: Optional[str]
    frequency: float

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def cycles(self) -> float:
        """Cycles executed during the segment (0 when idle)."""
        return 0.0 if self.job_key is None else self.duration * self.frequency


class Trace:
    """Chronological record of one core's segments."""

    def __init__(self) -> None:
        self.segments: List[Segment] = []

    # ------------------------------------------------------------------
    def add_segment(self, start: float, end: float, job_key: Optional[str], frequency: float):
        if end <= start:
            if end < start:
                raise ValueError(f"segment must not run backwards: [{start}, {end}]")
            return
        segments = self.segments
        # Coalesce with the previous segment when state is unchanged.
        if segments:
            last = segments[-1]
            if last.end == start and last.job_key == job_key and last.frequency == frequency:
                segments[-1] = Segment(last.start, end, job_key, frequency)
                return
        segments.append(Segment(start, end, job_key, frequency))

    # ------------------------------------------------------------------
    # JSONL round-trip
    # ------------------------------------------------------------------
    def to_jsonl(self) -> str:
        """Serialise the segments, one ``segment`` JSON object per line.

        Floats go through :mod:`json` ``repr``, which round-trips IEEE
        doubles exactly, so ``Trace.from_jsonl(trace.to_jsonl())``
        reproduces the trace bit-for-bit (asserted by the test suite).
        """
        lines = [
            json.dumps({
                "type": "segment", "start": s.start, "end": s.end,
                "job": s.job_key, "frequency": s.frequency,
            })
            for s in self.segments
        ]
        return "\n".join(lines) + ("\n" if lines else "")

    @classmethod
    def from_jsonl(cls, text: str) -> "Trace":
        """Rebuild a trace from :meth:`to_jsonl` output.

        Rows append verbatim (no re-coalescing), preserving the exact
        segment list the producer recorded.
        """
        trace = cls()
        for lineno, line in enumerate(text.splitlines(), start=1):
            if not line.strip():
                continue
            row = json.loads(line)
            kind = row.get("type")
            if kind != "segment":
                raise ValueError(f"line {lineno}: unknown trace row type {kind!r}")
            trace.segments.append(Segment(
                start=float(row["start"]), end=float(row["end"]),
                job_key=row.get("job"), frequency=float(row["frequency"]),
            ))
        return trace

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Trace):
            return NotImplemented
        return self.segments == other.segments

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def busy_segments(self) -> List[Segment]:
        return [s for s in self.segments if s.job_key is not None]

    def executed_cycles(self, job_key: Optional[str] = None) -> float:
        """Total cycles, optionally restricted to one job."""
        return sum(
            s.cycles
            for s in self.segments
            if s.job_key is not None and (job_key is None or s.job_key == job_key)
        )

    def busy_time(self) -> float:
        return sum(s.duration for s in self.busy_segments())

    def idle_time(self) -> float:
        return sum(s.duration for s in self.segments if s.job_key is None)

    def job_order(self) -> List[str]:
        """Distinct job keys in first-execution order (Theorem 2 checks)."""
        seen: List[str] = []
        for s in self.busy_segments():
            if s.job_key not in seen:
                seen.append(s.job_key)
        return seen

    def is_contiguous(self) -> bool:
        """Segments tile the timeline with no gaps or overlaps."""
        for a, b in zip(self.segments, self.segments[1:]):
            if abs(a.end - b.start) > 1e-9:
                return False
        return True
