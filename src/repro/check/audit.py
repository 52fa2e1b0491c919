"""Post-hoc audit of a finished run (`repro.check`).

:func:`audit` re-derives every fact a correct run must satisfy from what
the run recorded — the per-core :class:`~repro.sim.trace.Trace`
segments, the job list and the :class:`~repro.cpu.ProcessorStats` —
without trusting the engine's own accounting.  A uniprocessor
:class:`~repro.sim.engine.SimulationResult` reads as one core
(``[trace.segments]``, ``[processor_stats]``, no uncore energy); a
:class:`~repro.mp.MPSimulationResult` reads core by core, so the
uniprocessor, partitioned and global engines are audited by the same
code.  An attached :class:`~repro.check.InvariantChecker` runs it once
over the outermost result at the end of every run; it can also be
called directly on any result recorded with ``record_trace=True``.

Like the live checker, the audit re-implements what it checks: busy
energy is re-integrated from the segments through the energy model's
own ``E(f)``, not read back from the processor.

Catalogue:

===========================  ================================================
key                          asserts
===========================  ================================================
``timeline_tiling``          each core's segments tile ``[0, horizon]``
``time_monotonic``           no segment runs backwards
``execution_window``         a job runs only between its release and its
                             completion/abort, and a completed job's last
                             busy segment ends at its completion
``cycle_conservation``       traced cycles equal ``job.executed``, a
                             completed job executed its whole demand, and
                             every busy segment belongs to a job of the run
``utility_accrual``          a completed job accrued ``U(completion)`` in
                             ``[0, Umax]``; any other job accrued nothing
``metrics_consistency``      metrics re-derive from the job population
``energy_conservation``      per core: busy energy = Σ cycles·E(f), idle
                             energy = ``idle_power`` × traced idle time
``MP1-dual-execution``       no job runs on two cores in overlapping slots
``MP2-partition-respected``  partitioned: every job ran on its task's core,
                             and no migrations were counted
``MP3-migration-count``      the migration counter equals the cross-core
                             resumptions in the segments
``MP4-energy-conservation``  combined energy = per-core sum + uncore
``MP5-job-conservation``     per-core job populations partition the
                             combined population
===========================  ================================================

Everything except ``energy_conservation`` needs no energy model; that
part is :func:`check_mp_result`, which raises the first violation and
skips the segment checks of a run recorded without segments.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple, Union

from ..cpu import EnergyModel
from ..sim.engine import SimulationResult
from ..sim.job import JobStatus
from .invariants import InvariantViolation

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (mp imports sim)
    from ..mp.engine import MPSimulationResult

__all__ = ["audit", "check_mp_result"]

#: Relative tolerance for re-derived times, cycles, energy and utility.
_TOL = 1e-9
#: Slot-overlap tolerance, matching the engine's event coincidence EPS.
_EPS = 1e-12

Result = Union[SimulationResult, "MPSimulationResult"]


def _tol(x: float) -> float:
    return _TOL * max(1.0, abs(x))


def audit(result: Result, model: EnergyModel, idle_power: float) -> List[InvariantViolation]:
    """Every violation of the catalogue in ``result``, in check order.

    ``model`` and ``idle_power`` are the platform's: the audit charges
    them itself to re-derive each core's energy.
    """
    return _audit(result, model, idle_power)


def check_mp_result(result: "MPSimulationResult") -> None:
    """Raise the first model-free violation in ``result`` (see :func:`audit`)."""
    found = _audit(result, None, 0.0)
    if found:
        raise found[0]


def _audit(result: Result, model: Optional[EnergyModel],
           idle_power: float) -> List[InvariantViolation]:
    found: List[InvariantViolation] = []

    def flag(invariant: str, time: float, detail: str, job: Optional[str] = None) -> None:
        found.append(InvariantViolation(invariant, time, detail, job))

    horizon = result.horizon
    mp = not isinstance(result, SimulationResult)
    if mp:
        cores, per_core = result.core_segments, result.per_core_stats
    else:
        trace = result.trace
        cores = [trace.segments] if trace is not None else None
        per_core = [result.processor_stats]
    if cores is None and model is not None:
        flag("timeline_tiling", 0.0, "no execution segments recorded (record_trace=False)")

    # --- one pass over the segments ---------------------------------------
    # Tiling per core; each job's busy slots (start, end, core, frequency)
    # across cores; per core the cycles run at each frequency and the
    # idle time, for the energy integral.
    tiling: List[InvariantViolation] = []
    by_job: Dict[str, List[Tuple[float, float, int, float]]] = {}
    cycles_at: List[Dict[float, float]] = []
    idle_time: List[float] = []
    for core, segments in enumerate(cores or ()):
        cycles: Dict[float, float] = {}
        idle = t = 0.0
        for start, end, key, freq in segments:
            if abs(start - t) > _tol(t):
                tiling.append(InvariantViolation(
                    "timeline_tiling", start,
                    f"core {core}: gap or overlap at {t} (next segment starts at {start})"))
            if end < start:
                tiling.append(InvariantViolation(
                    "time_monotonic", start,
                    f"core {core}: segment runs backwards: [{start}, {end}]"))
            if key is None:
                idle += end - start
            else:
                cycles[freq] = cycles.get(freq, 0.0) + (end - start) * freq
                by_job.setdefault(key, []).append((start, end, core, freq))
            t = end
        if abs(t - horizon) > _tol(horizon):
            tiling.append(InvariantViolation(
                "timeline_tiling", t, f"core {core}: segments end at {t}, expected {horizon}"))
        cycles_at.append(cycles)
        idle_time.append(idle)
    for intervals in by_job.values():
        intervals.sort()

    # --- MP1: no job on two cores at once; count the migrations ----------
    migrations = 0
    for key, intervals in by_job.items():
        for (s0, e0, c0, _f0), (s1, _e1, c1, _f1) in zip(intervals, intervals[1:]):
            if c1 != c0:
                migrations += 1
                if s1 < e0 - _EPS:
                    flag("MP1-dual-execution", s1,
                         f"executes on cores {c0} and {c1} concurrently "
                         f"([{s0:.9g}, {e0:.9g}) vs start {s1:.9g})", key)

    # --- MP2: partitioned runs respect the assignment --------------------
    if mp and result.mode == "partitioned":
        if result.migrations != 0:
            flag("MP2-partition-respected", horizon,
                 f"partitioned run reports {result.migrations} migrations")
        core_of = result.core_of_task
        if core_of is not None:
            for core, sub in enumerate(result.per_core_results or ()):
                for job in sub.jobs if sub is not None else ():
                    if core_of.get(job.task.name) != core:
                        flag("MP2-partition-respected", job.release,
                             f"job of task {job.task.name!r} ran on core {core}, "
                             f"assigned to core {core_of.get(job.task.name)}", job.key)
            for key, intervals in by_job.items():
                task_name = key.rsplit(":", 1)[0]
                for start, _end, core, _f in intervals:
                    if core != core_of.get(task_name):
                        flag("MP2-partition-respected", start,
                             f"segment of task {task_name!r} on core {core}, "
                             f"assigned to core {core_of.get(task_name)}", key)

    # --- MP3: the migration counter matches the segment record -----------
    counted = result.migrations if mp else 0
    if cores is not None and migrations != counted:
        flag("MP3-migration-count", horizon,
             f"engine counted {counted} migrations, segments show {migrations}")
    if len(per_core) <= 1 and counted != 0:
        flag("MP3-migration-count", horizon, f"single-core run reports {counted} migrations")

    # --- MP4 / MP5: platform energy and job conservation -----------------
    if mp:
        expected = result.uncore_energy
        for stats in per_core:
            expected += stats.total_energy
        combined = result.processor_stats.total_energy
        if abs(combined - expected) > _tol(expected):
            flag("MP4-energy-conservation", horizon,
                 f"combined energy {combined!r} != per-core sum + uncore {expected!r}")
        if result.per_core_results is not None:
            per_core_keys = sorted(job.key for sub in result.per_core_results
                                   if sub is not None for job in sub.jobs)
            if per_core_keys != sorted(job.key for job in result.jobs):
                flag("MP5-job-conservation", horizon,
                     f"per-core jobs ({len(per_core_keys)}) do not partition the "
                     f"combined population ({len(result.jobs)})")

    found.extend(tiling)

    # --- per job: execution windows, cycles, utility ---------------------
    for job in result.jobs:
        key = job.key
        completed = job.status is JobStatus.COMPLETED
        finished = job.completion_time if completed else job.abort_time
        if cores is not None:
            # Popped: whatever is left afterwards belongs to no job.
            intervals = by_job.pop(key, [])
            executed = sum((end - start) * f for start, end, _c, f in intervals)
            if abs(executed - job.executed) > _tol(job.executed):
                flag("cycle_conservation", horizon,
                     f"trace cycles {executed} != job.executed {job.executed}", key)
            for start, end, _c, _f in intervals:
                if start < job.release - _tol(job.release):
                    flag("execution_window", start,
                         f"executed at {start} before its release {job.release}", key)
                if finished is not None and end > finished + _tol(finished):
                    flag("execution_window", end,
                         f"executed until {end} after finishing at {finished}", key)
            if completed and intervals and abs(intervals[-1][1] - finished) > _tol(finished):
                flag("execution_window", finished,
                     f"completed at {finished} but last ran until {intervals[-1][1]}", key)
        if completed:
            if abs(job.executed - job.demand) > _tol(job.demand):
                flag("cycle_conservation", finished,
                     f"completed with {job.executed} of {job.demand} cycles", key)
            expected = job.utility_at(finished)
            accrued = job.accrued_utility
            if abs(accrued - expected) > _tol(expected):
                flag("utility_accrual", finished,
                     f"accrued {accrued} != U(completion) {expected}", key)
            if not -_tol(expected) <= accrued <= job.max_utility + _tol(job.max_utility):
                flag("utility_accrual", finished,
                     f"accrued {accrued} outside [0, {job.max_utility}]", key)
        elif job.accrued_utility != 0.0:
            flag("utility_accrual", horizon,
                 f"{job.status.value} job accrued {job.accrued_utility}", key)
    for key, intervals in by_job.items():
        flag("cycle_conservation", intervals[0][0],
             "busy segments of a job outside the run's population", key)

    # --- metrics re-derive from the job population -----------------------
    metrics = result.metrics
    accrued = sum(j.accrued_utility for j in result.jobs)
    if abs(accrued - metrics.accrued_utility) > _tol(accrued):
        flag("metrics_consistency", horizon,
             f"metrics accrued utility {metrics.accrued_utility} != "
             f"job-population sum {accrued}")
    for status in (JobStatus.COMPLETED, JobStatus.ABORTED, JobStatus.EXPIRED):
        name = status.value
        count = sum(1 for j in result.jobs if j.status is status)
        if count != getattr(metrics, name):
            flag("metrics_consistency", horizon,
                 f"metrics {name}={getattr(metrics, name)} != recount {count}")

    # --- energy: each core's own E(f) integral over its segments ---------
    if model is not None:
        for core, (cycles, idle, stats) in enumerate(zip(cycles_at, idle_time, per_core)):
            busy = sum(c * model.energy_per_cycle(f) for f, c in cycles.items())
            if abs(busy - stats.energy) > _tol(stats.energy):
                flag("energy_conservation", horizon,
                     f"core {core}: segment E(f) sum {busy} != processor busy "
                     f"energy {stats.energy}")
            if abs(idle_power * idle - stats.idle_energy) > _tol(stats.idle_energy):
                flag("energy_conservation", horizon,
                     f"core {core}: idle energy {stats.idle_energy} != idle_power × "
                     f"traced idle time {idle_power * idle}")
    return found
