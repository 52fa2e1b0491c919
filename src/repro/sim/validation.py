"""Post-hoc validation of simulation outputs.

An independent auditor for finished runs: re-derives everything a
correct simulation must satisfy from the recorded :class:`Trace` and
job population, without trusting the engine's own accounting.  Used by
the integration tests and available to users who build custom policies
(the first thing to run when a new scheduler produces suspicious
numbers).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from ..cpu import EnergyModel
from .engine import SimulationResult
from .job import JobStatus
from .trace import Segment

__all__ = ["ValidationReport", "validate_result"]

_TOL = 1e-6


@dataclass
class ValidationReport:
    """Outcome of a validation pass: empty ``violations`` means clean."""

    violations: List[str] = field(default_factory=list)
    checks_run: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations

    def _check(self, condition: bool, message: str) -> None:
        self.checks_run += 1
        if not condition:
            self.violations.append(message)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        if self.ok:
            return f"OK ({self.checks_run} checks)"
        return f"{len(self.violations)} violations:\n" + "\n".join(
            f"  - {v}" for v in self.violations
        )


def validate_result(result: SimulationResult, model: EnergyModel) -> ValidationReport:
    """Audit ``result`` (requires a run with ``record_trace=True``)."""
    report = ValidationReport()
    trace = result.trace
    if trace is None:
        report._check(False, "no execution trace recorded (record_trace=False)")
        return report

    # ------------------------------------------------------------------
    # Timeline: segments tile [0, horizon] exactly once.
    # ------------------------------------------------------------------
    report._check(trace.is_contiguous(), "trace segments have gaps or overlaps")
    if trace.segments:
        report._check(
            abs(trace.segments[0].start) <= _TOL,
            f"trace starts at {trace.segments[0].start}, expected 0",
        )
        report._check(
            abs(trace.segments[-1].end - result.horizon) <= _TOL,
            f"trace ends at {trace.segments[-1].end}, expected {result.horizon}",
        )

    # ------------------------------------------------------------------
    # Serial execution: one job at a time (guaranteed by construction of
    # Segment, but overlapping same-instant segments would break it).
    # ------------------------------------------------------------------
    for a, b in zip(trace.segments, trace.segments[1:]):
        report._check(
            b.start >= a.end - _TOL,
            f"overlapping segments at {a.end} / {b.start}",
        )

    # ------------------------------------------------------------------
    # Per-job execution windows and cycle conservation: a job runs only
    # between its release and its completion/abort instant, and a
    # completed job's last busy segment ends exactly at its completion.
    # ------------------------------------------------------------------
    busy: Dict[str, List[Segment]] = {}
    for seg in trace.busy_segments():
        busy.setdefault(seg.job_key, []).append(seg)
    for job in result.jobs:
        key = job.key
        segs = busy.get(key, [])
        executed = sum(seg.cycles for seg in segs)
        report._check(
            abs(executed - job.executed) <= _TOL * max(1.0, job.executed),
            f"{key}: trace cycles {executed} != job.executed {job.executed}",
        )
        finished = job.completion_time if job.completion_time is not None else job.abort_time
        for seg in segs:
            report._check(
                seg.start >= job.release - _TOL,
                f"{key} executed at {seg.start} before its release {job.release}",
            )
            if finished is not None:
                report._check(
                    seg.end <= finished + _TOL,
                    f"{key} executed until {seg.end} after finishing at {finished}",
                )
        if job.status is JobStatus.COMPLETED:
            if segs:
                report._check(
                    abs(segs[-1].end - job.completion_time) <= _TOL,
                    f"{key} completed at {job.completion_time} but last ran "
                    f"until {segs[-1].end}",
                )
            report._check(
                abs(job.executed - job.demand) <= _TOL * max(1.0, job.demand),
                f"{key} completed with {job.executed} of {job.demand} cycles",
            )
            report._check(
                job.completion_time is not None
                and abs(job.accrued_utility - job.utility_at(job.completion_time))
                <= _TOL,
                f"{key} utility {job.accrued_utility} inconsistent with completion",
            )
        elif job.status in (JobStatus.ABORTED, JobStatus.EXPIRED):
            report._check(
                job.accrued_utility == 0.0,
                f"{key} {job.status.value} but accrued {job.accrued_utility}",
            )

    # ------------------------------------------------------------------
    # Energy: independent integration over segments.
    # ------------------------------------------------------------------
    seg_energy = sum(
        s.cycles * model.energy_per_cycle(s.frequency) for s in trace.busy_segments()
    )
    busy_energy = result.processor_stats.energy
    report._check(
        abs(seg_energy - busy_energy) <= _TOL * max(1.0, busy_energy),
        f"segment energy {seg_energy} != processor busy energy {busy_energy}",
    )

    # ------------------------------------------------------------------
    # Metrics re-derivation.
    # ------------------------------------------------------------------
    accrued = sum(j.accrued_utility for j in result.jobs)
    report._check(
        abs(accrued - result.metrics.accrued_utility) <= _TOL * max(1.0, accrued),
        "metrics accrued utility does not match the job population",
    )
    counts = {
        "completed": sum(1 for j in result.jobs if j.status is JobStatus.COMPLETED),
        "aborted": sum(1 for j in result.jobs if j.status is JobStatus.ABORTED),
        "expired": sum(1 for j in result.jobs if j.status is JobStatus.EXPIRED),
    }
    report._check(counts["completed"] == result.metrics.completed, "completed count mismatch")
    report._check(counts["aborted"] == result.metrics.aborted, "aborted count mismatch")
    report._check(counts["expired"] == result.metrics.expired, "expired count mismatch")

    return report
