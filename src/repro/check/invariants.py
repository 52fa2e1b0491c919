"""Invariant checking — live decision hooks plus one post-hoc audit (`repro.check`).

The :class:`InvariantChecker` attaches to a simulation the same way the
adaptive runtime does: the engine holds an ``Optional[InvariantChecker]``
and each of its two hook sites (``on_release``, ``on_decision``) is
guarded by a single ``is not None`` branch, so a detached checker costs
nothing and an attached one observes — never influences — the run.  At
every decision point it re-derives what a correct EUA* implementation
*must* have done from first principles (reference feasibility walks, an
independently coded UER formula, its own UAM sliding window).  Those
checks stay live because they need the :class:`SchedulerView` of the
moment.  Everything else is a fact about the finished schedule, so the
engine hands its result to :meth:`InvariantChecker.audit` once at the
end of the run, which runs :func:`repro.check.audit.audit` (timeline
tiling, execution windows, cycle/energy conservation, utility accrual,
metrics, MP1–MP5) over the recorded segments.  The first disagreement
raises a typed :class:`InvariantViolation` (or is collected).

Independence matters: the checker deliberately re-implements the
boundary arithmetic it audits (UAM window tolerance, the UER metric)
instead of importing the production helpers, so a bug — or a seeded
mutation (:mod:`repro.check.mutations`) — in the production code cannot
silently patch both sides of the comparison.

Live invariant catalogue (the post-hoc keys are listed in
:mod:`repro.check.audit`; see ``docs/testing.md`` for the narrative):

===================  ========================================================
key                  asserts
===================  ========================================================
``tuf_shape``        every TUF is non-increasing with a positive maximum
``task_params``      ``c_i > 0`` and ``0 < D_i <= X_i`` for every task
``offline_params``   the scheduler's ``offlineComputing`` outputs equal the
                     uncached reference (EUA* only, checked once)
``uam_envelope``     admitted releases satisfy ``⟨a, P⟩`` per task
``frequency_in_scale``  every dispatch frequency is a ladder level
``dispatch_ready``   the dispatched job is pending and in the ready set
``abort_valid``      aborted jobs are pending, ready and not the dispatch
``sigma_order``      the reconstructed σ is critical-time ordered
``sigma_feasible``   the reconstructed σ is feasible at ``f_max``
``sigma_head``       the dispatched job equals the head of the reference σ
``abort_set``        the abort set equals the individually infeasible jobs
``fopt_bound``       dispatch frequency ``>= f°`` of the dispatched task
``frequency_sufficient``  dispatch frequency covers the assurance rate of
                     the scheduler's DVS method, capped at ``f_max``
``head_feasible``    the dispatched job alone is feasible at ``f_max``
``edf_equivalence``  Theorem 2: under periodic step-TUF underload (with the
                     deterministic DVS method) σ holds every ready job and
                     the head has the earliest critical time
===================  ========================================================
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from ..cpu import Processor
from ..obs import EventKind, Observer
from ..sim.job import Job, JobStatus
from ..sim.scheduler import Decision, Scheduler, SchedulerView
from ..sim.task import TaskSet

__all__ = ["InvariantViolation", "InvariantChecker"]

#: Relative tolerance for re-derived float comparisons (energy, utility).
_TOL = 1e-9

#: Mirror of the UAM window tolerance — deliberately *not* imported from
#: :mod:`repro.arrivals.uam`, so a bug there cannot blind the checker.
_UAM_TOL_REL = 1e-9

#: Underload threshold for the Theorem-2 in-run equivalence invariant.
_EDF_EQUIV_LOAD = 0.9


class InvariantViolation(RuntimeError):
    """A machine-checked scheduling invariant failed.

    Attributes
    ----------
    invariant:
        The catalogue key (e.g. ``"sigma_head"``).
    time:
        Simulation time of the violation.
    job:
        Key of the job involved, if any.
    detail:
        Human-readable description of the disagreement.
    """

    def __init__(self, invariant: str, time: float, detail: str, job: Optional[str] = None):
        self.invariant = invariant
        self.time = time
        self.job = job
        self.detail = detail
        where = f" job={job}" if job else ""
        super().__init__(f"[{invariant}] t={time:.9g}{where}: {detail}")


class InvariantChecker:
    """Observe-only auditor of a single simulation run.

    Parameters
    ----------
    mode:
        ``"raise"`` (default) raises the first :class:`InvariantViolation`;
        ``"collect"`` accumulates them in :attr:`violations` and lets the
        run complete (the fuzzer's mode).

    A checker audits one run: the engine calls :meth:`bind` before the
    main loop, the two ``on_*`` hooks during it, and :meth:`audit` once
    over the finished result.  A partitioned run binds it once per core
    and audits the combined result, so :attr:`violations` accumulate
    across binds.  Violations are also emitted as
    ``invariant_violation`` events on the attached observer, so a clean
    run's event log is bit-identical with or without the checker.
    """

    def __init__(self, mode: str = "raise"):
        if mode not in ("raise", "collect"):
            raise ValueError(f"mode must be 'raise' or 'collect', got {mode!r}")
        self.mode = mode
        self.violations: List[InvariantViolation] = []
        self._taskset: Optional[TaskSet] = None
        self._scheduler: Optional[Scheduler] = None
        self._observer: Optional[Observer] = None
        self._scale = None
        self._model = None
        self._idle_power = 0.0
        self._uam: Dict[str, Deque[float]] = {}
        self._params_checked = False
        self._edf_equiv_active = False

    @property
    def ok(self) -> bool:
        return not self.violations

    # ------------------------------------------------------------------
    def bind(
        self,
        taskset: TaskSet,
        processor: Processor,
        scheduler: Scheduler,
        observer: Optional[Observer],
    ) -> None:
        """Reset per-engine state (partitioned: once per core) and
        validate the static task model."""
        self._taskset = taskset
        self._scheduler = scheduler
        self._observer = observer
        self._scale = processor.scale
        self._model = processor.model
        self._idle_power = processor.idle_power
        self._uam = {t.name: deque() for t in taskset}
        self._params_checked = False
        self._edf_equiv_active = self._edf_equivalence_applies()
        for task in taskset:
            if not task.allocation > 0.0:
                self._violate(
                    "task_params", 0.0,
                    f"task {task.name!r}: allocation {task.allocation} <= 0")
            if not (0.0 < task.critical_time <= task.tuf.termination + _TOL):
                self._violate(
                    "task_params", 0.0,
                    f"task {task.name!r}: critical time {task.critical_time} "
                    f"outside (0, {task.tuf.termination}]")
            if task.tuf.max_utility < 0.0:
                self._violate(
                    "tuf_shape", 0.0,
                    f"task {task.name!r}: negative max utility {task.tuf.max_utility}")
            if not task.tuf.is_non_increasing():
                self._violate(
                    "tuf_shape", 0.0,
                    f"task {task.name!r}: TUF is not non-increasing")

    def _edf_equivalence_applies(self) -> bool:
        """Theorem 2 preconditions, decided once per run (see catalogue).

        The lookahead DVS method is *statistically* safe only, so the
        per-decision equivalence invariant is restricted to schedulers
        whose feasibility is deterministic (no DVS, or the processor-
        demand method); the lookahead arm is covered by the fuzzer's
        cross-scheduler dominance oracle instead.
        """
        sched = self._scheduler
        from ..core.eua import EUAStar  # local: engine imports run before core

        if type(sched) is not EUAStar:
            return False
        if sched.use_dvs and sched.dvs_method != "demand":
            return False
        if not (sched.abort_expired and sched.abort_infeasible):
            return False
        if sched.strict_insertion_break or sched.ordering != "uer":
            return False
        for task in self._taskset:
            if task.uam.max_arrivals != 1 or task.nu != 1.0 or not task.abortable:
                return False
            if type(task.tuf).__name__ != "StepTUF":
                return False
        return self._taskset.load(self._scale.f_max) < _EDF_EQUIV_LOAD

    # ------------------------------------------------------------------
    def _violate(self, invariant: str, time: float, detail: str,
                 job: Optional[str] = None) -> None:
        self._report(InvariantViolation(invariant, time, detail, job))

    def _report(self, violation: InvariantViolation) -> None:
        self.violations.append(violation)
        obs = self._observer
        if obs is not None:
            obs.emit(violation.time, EventKind.INVARIANT_VIOLATION, violation.job,
                     source="check", invariant=violation.invariant,
                     detail=violation.detail)
            obs.inc("invariant_violations", invariant=violation.invariant)
        if self.mode == "raise":
            raise violation

    # ------------------------------------------------------------------
    # Engine hooks
    # ------------------------------------------------------------------
    def on_release(self, job: Job, time: float) -> None:
        """UAM envelope compliance of the admitted release stream."""
        task = job.task
        dq = self._uam[task.name]
        window = task.uam.window
        effective = window - _UAM_TOL_REL * max(1.0, abs(window))
        while dq and job.release - dq[0] >= effective:
            dq.popleft()
        dq.append(job.release)
        if len(dq) > task.uam.max_arrivals:
            self._violate(
                "uam_envelope", time,
                f"task {task.name!r}: {len(dq)} releases within window "
                f"{window} exceed a={task.uam.max_arrivals} "
                f"(window opened at {dq[0]})",
                job=job.key)

    def on_decision(self, view: SchedulerView, decision: Decision,
                    scheduler: Scheduler) -> None:
        t = view.time
        ready_ids = {id(j) for j in view.ready}
        job = decision.job
        if job is not None:
            if decision.frequency not in view.scale:
                self._violate(
                    "frequency_in_scale", t,
                    f"dispatch frequency {decision.frequency!r} is not a level "
                    f"of {view.scale!r}", job=job.key)
            if id(job) not in ready_ids or job.status is not JobStatus.PENDING:
                self._violate(
                    "dispatch_ready", t,
                    f"dispatched job is {job.status.value} / not in the ready set",
                    job=job.key)
        for aborted in decision.aborts:
            if id(aborted) not in ready_ids or aborted.is_finished:
                self._violate(
                    "abort_valid", t,
                    f"abort of {aborted.status.value} / non-ready job",
                    job=aborted.key)
            if aborted is job:
                self._violate(
                    "abort_valid", t, "dispatched job is in its own abort set",
                    job=aborted.key)
        from ..core.eua import EUAStar

        if isinstance(scheduler, EUAStar):
            self._check_eua_decision(view, decision, scheduler)

    # ------------------------------------------------------------------
    def _check_eua_decision(self, view: SchedulerView, decision: Decision,
                            scheduler) -> None:
        """Re-derive Algorithm 1 with the naive reference path."""
        from ..core.feasibility import (
            insert_by_critical_time_reference,
            job_feasible_reference,
            schedule_feasible_reference,
        )
        from ..core.offline import MIN_UER_CYCLES, offline_computing_reference

        t = view.time
        f_m = view.scale.f_max
        model = view.energy_model

        if not self._params_checked:
            self._params_checked = True
            reference = offline_computing_reference(self._taskset, view.scale, model)
            for name, expected in reference.items():
                got = scheduler.params.get(name)
                if got != expected:
                    self._violate(
                        "offline_params", t,
                        f"task {name!r}: scheduler params {got} != reference {expected}")

        expected_aborts: List[Job] = []
        ranked: List[Tuple[float, float, Job]] = []
        for job in view.ready:
            if not job_feasible_reference(job, t, f_m):
                if scheduler.abort_infeasible and job.task.abortable:
                    expected_aborts.append(job)
                continue
            # The UER metric, independently coded (see module docstring).
            c = max(job.remaining_budget, MIN_UER_CYCLES)
            utility = job.utility_at(t + c / f_m)
            if scheduler.ordering == "uer":
                metric = utility / (model.energy_per_cycle(f_m) * c)
            else:  # utility_density ablation
                metric = utility / c
            ranked.append((metric, job.critical_time, job))
        ranked.sort(key=lambda e: (-e[0], e[1], e[2].release, e[2].index))

        sigma: List[Job] = []
        for metric, _, job in ranked:
            if metric <= 0.0:
                break
            tentative = insert_by_critical_time_reference(sigma, job)
            if schedule_feasible_reference(tentative, t, f_m):
                sigma = tentative
            elif scheduler.strict_insertion_break:
                break

        for a, b in zip(sigma, sigma[1:]):
            if a.critical_time > b.critical_time:
                self._violate(
                    "sigma_order", t,
                    f"σ not critical-time ordered: {a.key} ({a.critical_time}) "
                    f"before {b.key} ({b.critical_time})")
        if sigma and not schedule_feasible_reference(sigma, t, f_m):
            self._violate("sigma_feasible", t, "reconstructed σ infeasible at f_max")

        expected_head = sigma[0] if sigma else None
        if decision.job is not expected_head:
            self._violate(
                "sigma_head", t,
                f"dispatched {decision.job.key if decision.job else None} but the "
                f"reference σ head is {expected_head.key if expected_head else None} "
                f"(|σ|={len(sigma)})",
                job=decision.job.key if decision.job else None)

        got_aborts = {id(j) for j in decision.aborts}
        want_aborts = {id(j) for j in expected_aborts}
        if got_aborts != want_aborts:
            self._violate(
                "abort_set", t,
                f"abort set {sorted(j.key for j in decision.aborts)} != individually "
                f"infeasible set {sorted(j.key for j in expected_aborts)}")

        if decision.job is not None:
            if not job_feasible_reference(decision.job, t, f_m):
                self._violate(
                    "head_feasible", t,
                    "dispatched job cannot finish its budget at f_max",
                    job=decision.job.key)
            if scheduler.use_dvs and scheduler.use_fopt_bound:
                params = scheduler.params.get(decision.job.task.name)
                if params is not None and decision.frequency < params.optimal_frequency:
                    self._violate(
                        "fopt_bound", t,
                        f"dispatch frequency {decision.frequency} below "
                        f"f°={params.optimal_frequency} of task "
                        f"{decision.job.task.name!r}",
                        job=decision.job.key)
            if scheduler.use_dvs:
                from ..core.decide_freq import (
                    required_rate_demand,
                    required_rate_lookahead,
                )

                working = view.without(expected_aborts) if expected_aborts else view
                if scheduler.dvs_method == "demand":
                    rate = required_rate_demand(working)
                else:
                    rate = required_rate_lookahead(working)
                need = min(rate, f_m)
                if decision.frequency < need * (1.0 - _TOL):
                    self._violate(
                        "frequency_sufficient", t,
                        f"dispatch frequency {decision.frequency} below the "
                        f"{scheduler.dvs_method} assurance rate {rate} "
                        f"(capped at f_max={f_m})",
                        job=decision.job.key)

        if self._edf_equiv_active:
            pending = [j for j in view.ready if j not in decision.aborts]
            if len(sigma) != len(pending):
                in_sigma = {id(j) for j in sigma}
                left_out = [j.key for j in pending if id(j) not in in_sigma]
                self._violate(
                    "edf_equivalence", t,
                    f"Theorem 2: periodic underload but σ excludes {left_out}")
            elif expected_head is not None:
                earliest = min(j.critical_time for j in pending)
                if expected_head.critical_time > earliest + _TOL:
                    self._violate(
                        "edf_equivalence", t,
                        f"Theorem 2: head critical time {expected_head.critical_time} "
                        f"is not the earliest ({earliest})",
                        job=expected_head.key)

    # ------------------------------------------------------------------
    def audit(self, result, observer: Optional[Observer]) -> None:
        """Audit the finished run once (:func:`repro.check.audit.audit`).

        ``result`` is the outermost result of the run — a partitioned
        run's combined one, not each core's — and its violations are
        emitted on ``observer``, the run's own.
        """
        from .audit import audit  # local: the audit module imports this one

        self._observer = observer
        for violation in audit(result, self._model, self._idle_power):
            self._report(violation)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"InvariantChecker(mode={self.mode!r}, "
                f"violations={len(self.violations)})")
