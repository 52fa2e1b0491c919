"""Campaign/pool telemetry and the :class:`PhaseReport` aggregate.

A :class:`Telemetry` bundles the three things a multi-process pipeline
needs to account for its wall-clock:

* a :class:`~repro.obs.spans.SpanTracer` for the **main-process** phase
  tree (planning, cache probes, dispatch, folding, ...);
* **worker intervals** — (worker, start, end, label) busy periods
  reported back by pool workers, laid out on the tracer's timeline;
* **counters** — replication counts, cache hits/misses, pickled bytes.

Everything aggregates into a :class:`PhaseReport`: per-phase
count/total/self/p50/p99 rows, per-worker utilisation lanes, reps/sec
and cache hit rate — with a stable, versioned JSONL wire format (see
:mod:`repro.obs.jsonl`) and an exact accounting check
(:meth:`PhaseReport.coverage`): the phase self-times of the span tree
tile the root spans, so their sum over a fully traced run must land
within a few percent of the measured wall-clock.

Worker execution time deliberately lives in the lanes, *not* the phase
tree: it overlaps the main process (which is busy dispatching and
folding meanwhile), so adding it to the tree would double-count the
timeline and break the coverage identity.  Serial (``workers=1``) runs
execute in-process and therefore do appear in the tree.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from .spans import SpanTracer

__all__ = [
    "PHASE_REPORT_VERSION",
    "WorkerInterval",
    "WorkerLane",
    "PhaseRow",
    "PhaseReport",
    "Telemetry",
    "build_phase_report",
]

#: Wire-format version for PhaseReport / span JSONL rows.  Bump when a
#: field changes meaning so old files fail loudly instead of misparsing.
PHASE_REPORT_VERSION = 1


@dataclass(frozen=True)
class WorkerInterval:
    """One busy period of one worker, in tracer-timeline seconds."""

    worker: str
    start: float
    end: float
    label: str = "execute"


class Telemetry:
    """Mutable collector handed down a campaign/pool pipeline."""

    __slots__ = ("tracer", "intervals", "counters")

    def __init__(self, tracer: Optional[SpanTracer] = None) -> None:
        self.tracer = tracer if tracer is not None else SpanTracer()
        self.intervals: List[WorkerInterval] = []
        self.counters: Dict[str, float] = {}

    # ------------------------------------------------------------------
    def count(self, name: str, amount: float = 1.0) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + float(amount)

    def counter_value(self, name: str) -> float:
        return self.counters.get(name, 0.0)

    def interval(self, worker: str, start: float, end: float,
                 label: str = "execute") -> None:
        self.intervals.append(WorkerInterval(worker, float(start), float(end), label))

    def merge(self, other: "Telemetry") -> None:
        self.tracer.merge(other.tracer)
        self.intervals.extend(other.intervals)
        for name, value in other.counters.items():
            self.count(name, value)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Telemetry({len(self.tracer)} spans, {len(self.intervals)} "
            f"intervals, {len(self.counters)} counters)"
        )


# ----------------------------------------------------------------------
# The aggregate
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PhaseRow:
    """Per-phase aggregate: one row of the report's phase table."""

    phase: str
    count: int
    total: float
    self_time: float
    p50: float
    p99: float


@dataclass(frozen=True)
class WorkerLane:
    """One worker's busy timeline plus its utilisation over the run."""

    worker: str
    busy: float
    utilisation: float
    intervals: Tuple[Tuple[float, float, str], ...]


@dataclass
class PhaseReport:
    """Phase-attributed time accounting for one traced run.

    ``phases`` carries the main-process span tree (paths are
    slash-joined, e.g. ``campaign/campaign.simulate/pool.fold`` or
    ``engine.run/engine.decide/core.eua_construct/core.eua_feasibility``).
    Worker lanes measure work that *overlaps* the tree, so
    :meth:`coverage` sums phase self-times only.
    """

    version: int = PHASE_REPORT_VERSION
    wall_clock: float = 0.0
    phases: List[PhaseRow] = field(default_factory=list)
    workers: List[WorkerLane] = field(default_factory=list)
    counters: Dict[str, float] = field(default_factory=dict)
    reps_per_second: Optional[float] = None
    cache_hit_rate: Optional[float] = None

    # ------------------------------------------------------------------
    def self_time_total(self) -> float:
        return sum(r.self_time for r in self.phases)

    def coverage(self) -> float:
        """Fraction of the wall-clock the span tree accounts for."""
        if self.wall_clock <= 0.0:
            return 0.0
        return self.self_time_total() / self.wall_clock

    def phase(self, path: str) -> Optional[PhaseRow]:
        for row in self.phases:
            if row.phase == path:
                return row
        return None

    def phase_total(self, leaf: str) -> float:
        """Summed total of every phase whose leaf name is ``leaf``."""
        return sum(
            r.total for r in self.phases if r.phase.rsplit("/", 1)[-1] == leaf
        )

    # ------------------------------------------------------------------
    # Wire format (dict level; JSONL framing lives in repro.obs.jsonl)
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict:
        return {
            "version": self.version,
            "wall_clock": self.wall_clock,
            "phases": [
                {"phase": r.phase, "count": r.count, "total": r.total,
                 "self": r.self_time, "p50": r.p50, "p99": r.p99}
                for r in self.phases
            ],
            "workers": [
                {"worker": w.worker, "busy": w.busy,
                 "utilisation": w.utilisation,
                 "intervals": [list(iv) for iv in w.intervals]}
                for w in self.workers
            ],
            "counters": dict(sorted(self.counters.items())),
            "reps_per_second": self.reps_per_second,
            "cache_hit_rate": self.cache_hit_rate,
        }

    @classmethod
    def from_dict(cls, payload: Dict) -> "PhaseReport":
        version = int(payload["version"])
        if version != PHASE_REPORT_VERSION:
            raise ValueError(
                f"unsupported phase-report version {version} "
                f"(this build reads version {PHASE_REPORT_VERSION})"
            )
        return cls(
            version=version,
            wall_clock=float(payload["wall_clock"]),
            phases=[
                PhaseRow(
                    phase=str(r["phase"]), count=int(r["count"]),
                    total=float(r["total"]), self_time=float(r["self"]),
                    p50=float(r["p50"]), p99=float(r["p99"]),
                )
                for r in payload.get("phases", [])
            ],
            workers=[
                WorkerLane(
                    worker=str(w["worker"]), busy=float(w["busy"]),
                    utilisation=float(w["utilisation"]),
                    intervals=tuple(
                        (float(iv[0]), float(iv[1]), str(iv[2]))
                        for iv in w.get("intervals", [])
                    ),
                )
                for w in payload.get("workers", [])
            ],
            counters={k: float(v) for k, v in payload.get("counters", {}).items()},
            reps_per_second=(
                None if payload.get("reps_per_second") is None
                else float(payload["reps_per_second"])
            ),
            cache_hit_rate=(
                None if payload.get("cache_hit_rate") is None
                else float(payload["cache_hit_rate"])
            ),
        )

    # ------------------------------------------------------------------
    def render(self) -> str:
        """The ASCII report the ``profile`` subcommand prints."""
        from ..experiments.reporting import ascii_table  # no import cycle at call time

        lines: List[str] = []
        rows = [
            {
                "phase": ("  " * r.phase.count("/")) + r.phase.rsplit("/", 1)[-1],
                "count": r.count,
                "total_ms": r.total * 1e3,
                "self_ms": r.self_time * 1e3,
                "p50_us": r.p50 * 1e6,
                "p99_us": r.p99 * 1e6,
            }
            for r in self.phases
        ]
        if rows:
            lines.append("phase table (self = excluding children)")
            lines.append(ascii_table(
                rows, ["phase", "count", "total_ms", "self_ms", "p50_us", "p99_us"]
            ))
        if self.workers:
            lines.append("")
            lines.append("worker lanes")
            lines.append(ascii_table(
                [
                    {"worker": w.worker, "busy_s": w.busy,
                     "utilisation": w.utilisation,
                     "intervals": len(w.intervals)}
                    for w in self.workers
                ],
                ["worker", "busy_s", "utilisation", "intervals"],
            ))
        tail = [f"wall-clock {self.wall_clock:.3f}s",
                f"phase self-times cover {self.coverage():.1%}"]
        if self.reps_per_second is not None:
            tail.append(f"{self.reps_per_second:.1f} reps/s")
        if self.cache_hit_rate is not None:
            tail.append(f"cache hit rate {self.cache_hit_rate:.1%}")
        lines.append("")
        lines.append("  ".join(tail))
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Assembly
# ----------------------------------------------------------------------
def build_phase_report(
    source: Union[Telemetry, SpanTracer],
    wall_clock: Optional[float] = None,
) -> PhaseReport:
    """Aggregate a telemetry capture (or a bare tracer) into a report.

    ``wall_clock`` defaults to the summed duration of the root
    (depth-0) spans: the one root of a fully traced run, or every run's
    root in a tracer merged from several runs.
    """
    if isinstance(source, SpanTracer):
        telemetry = Telemetry(tracer=source)
    else:
        telemetry = source
    tracer = telemetry.tracer

    phases = [
        PhaseRow(
            phase=stats.path, count=stats.count, total=stats.total,
            self_time=stats.self_total, p50=stats.p50, p99=stats.p99,
        )
        for stats in tracer.aggregate().values()
    ]
    if wall_clock is None:
        wall_clock = sum(s.duration for s in tracer.spans if s.depth == 0)

    lanes: List[WorkerLane] = []
    by_worker: Dict[str, List[WorkerInterval]] = {}
    for iv in telemetry.intervals:
        by_worker.setdefault(iv.worker, []).append(iv)
    for worker in sorted(by_worker):
        ivs = sorted(by_worker[worker], key=lambda iv: (iv.start, iv.end))
        busy = sum(iv.end - iv.start for iv in ivs)
        lanes.append(
            WorkerLane(
                worker=worker,
                busy=busy,
                utilisation=busy / wall_clock if wall_clock > 0.0 else 0.0,
                intervals=tuple((iv.start, iv.end, iv.label) for iv in ivs),
            )
        )

    reps = telemetry.counter_value("campaign.reps_simulated")
    reps_per_second: Optional[float] = None
    if reps > 0.0:
        simulate_total = sum(
            r.total for r in phases if r.phase.rsplit("/", 1)[-1] == "campaign.simulate"
        )
        denom = simulate_total if simulate_total > 0.0 else wall_clock
        if denom > 0.0:
            reps_per_second = reps / denom

    probes = (telemetry.counter_value("campaign.cache_hits")
              + telemetry.counter_value("campaign.cache_misses"))
    cache_hit_rate: Optional[float] = None
    if probes > 0.0:
        cache_hit_rate = telemetry.counter_value("campaign.cache_hits") / probes

    return PhaseReport(
        wall_clock=wall_clock,
        phases=phases,
        workers=lanes,
        counters=dict(sorted(telemetry.counters.items())),
        reps_per_second=reps_per_second,
        cache_hit_rate=cache_hit_rate,
    )
