"""Schedule feasibility at ``f_max`` (paper §3.2, ``feasible()``).

A schedule ``σ`` (ordered job list) is feasible when the *predicted*
completion time of every job — executing the schedule in order at the
highest frequency ``f_m`` and budgeting each job's remaining Chebyshev
allocation — does not exceed the job's termination time.

Prediction uses scheduler-visible budgets (``remaining_budget``), never
true demands.

Two implementations live here:

* the **naive reference** functions (:func:`job_feasible`,
  :func:`schedule_feasible`, :func:`insert_by_critical_time`), which
  re-walk σ from scratch per probe — simple, obviously correct, and
  kept importable under ``*_reference`` aliases as the equivalence
  oracle for the differential test harness;
* :class:`IncrementalSchedule`, the hot-path structure EUA* and DASA
  build σ with: it maintains the critical-time order, the sequentially
  folded prefix of predicted completion times, and each entry's
  execution time and termination threshold (computed once, when the
  entry is accepted), so an insertion probe locates its position by
  bisection and re-folds only the *suffix* at or after the insertion
  point — a loop over cached floats — instead of copying and
  re-walking the whole schedule.  The suffix re-fold repeats the
  reference's exact accumulation order, so every probe verdict — and
  therefore every schedule, abort set, and frequency decision
  downstream — is bit-identical to the naive path (see
  ``docs/performance.md`` for the equivalence contract).
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import accumulate
from typing import Iterable, Iterator, List, Optional, Sequence

from ..sim.job import Job

__all__ = [
    "job_feasible",
    "schedule_feasible",
    "insert_by_critical_time",
    "predicted_completions",
    "job_feasible_reference",
    "schedule_feasible_reference",
    "IncrementalSchedule",
]

#: Completion-vs-termination comparisons tolerate this much slack so a
#: job predicted to finish exactly at its termination counts as feasible
#: only if strictly earlier (completing *at* X accrues zero utility).
_EPS = 1e-12


def _deadline_slack(job: Job) -> float:
    """Feasibility tolerance for ``job``: ``_EPS`` scaled to the
    magnitude of its termination time.

    Shared by :func:`job_feasible`, :func:`schedule_feasible` and
    :class:`IncrementalSchedule` so the single-job and whole-schedule
    paths can never drift apart (they once duplicated the expression).
    A completion is feasible iff it is more than this slack *before*
    the termination time.
    """
    return _EPS * max(1.0, abs(job.termination))


def job_feasible(job: Job, now: float, f_max: float) -> bool:
    """Can ``job`` alone finish its remaining budget before termination?

    Algorithm 1 line 10: individually infeasible jobs are aborted.

    Hot-path kernel: every policy calls this once per ready job per
    decision, so the ``remaining_budget`` / ``_deadline_slack``
    indirections are inlined (same expressions, same float ops —
    bit-identical to :func:`job_feasible_reference`, which keeps the
    straight-line form).
    """
    task = job.task
    alloc = task._allocation  # the allocation property's cache slot
    rb = (task.allocation if alloc is None else alloc) - job.executed
    if rb < 0.0:
        rb = 0.0
    term = job.termination
    mag = term if term > 0.0 else -term  # abs(term)
    # predicted < termination - _deadline_slack(job)
    return now + rb / f_max < term - _EPS * (mag if mag > 1.0 else 1.0)


def predicted_completions(sigma: Sequence[Job], now: float, f_max: float) -> List[float]:
    """Back-to-back predicted completion times of ``σ`` at ``f_max``."""
    t = now
    out: List[float] = []
    for job in sigma:
        t += job.remaining_budget / f_max
        out.append(t)
    return out


def schedule_feasible(sigma: Sequence[Job], now: float, f_max: float) -> bool:
    """``feasible(σ)``: every predicted completion precedes termination.

    Kernel form of the fold (see :func:`job_feasible`); bit-identical
    to :func:`schedule_feasible_reference`.
    """
    t = now
    for job in sigma:
        rb = job.task.allocation - job.executed
        if rb < 0.0:
            rb = 0.0
        t += rb / f_max
        term = job.termination
        mag = term if term > 0.0 else -term
        if t >= term - _EPS * (mag if mag > 1.0 else 1.0):
            return False
    return True


def insert_by_critical_time(sigma: Sequence[Job], job: Job) -> List[Job]:
    """``insert(J, σ, J.D)`` — new list with ``job`` placed by critical time.

    Jobs already in ``σ`` with the *same* critical time precede the new
    job (the paper: "if there are already entries in σ at the index I,
    T is inserted after them").  Returns a fresh list; ``σ`` is
    unmodified so callers can keep the pre-insertion schedule (Algorithm
    1's ``σ_tent`` copy).
    """
    out: List[Job] = list(sigma)
    d = job.critical_time
    pos = len(out)
    for i, existing in enumerate(out):
        if existing.critical_time > d:
            pos = i
            break
    out.insert(pos, job)
    return out


def job_feasible_reference(job: Job, now: float, f_max: float) -> bool:
    """Straight-line transliteration of the feasibility predicate — the
    equivalence oracle for the kernel form of :func:`job_feasible`."""
    predicted = now + job.remaining_budget / f_max
    return predicted < job.termination - _deadline_slack(job)


def schedule_feasible_reference(sigma: Sequence[Job], now: float, f_max: float) -> bool:
    """Straight-line ``feasible(σ)`` — oracle for :func:`schedule_feasible`."""
    t = now
    for job in sigma:
        t += job.remaining_budget / f_max
        if t >= job.termination - _deadline_slack(job):
            return False
    return True


class IncrementalSchedule:
    """σ under construction, with bisected insertion-point probes.

    Maintains five parallel arrays, in critical-time order: the jobs,
    their critical times (for bisection), the *sequentially folded*
    predicted completion times at ``f_max``, and — written once when a
    job is accepted — each job's execution time at ``f_max``
    (``_durs[k] = remaining_budget / f_max``) and its termination
    threshold (``_thrs[k] = termination − _deadline_slack``).
    :meth:`try_insert` probes feasibility of σ with a candidate added:

    * the insertion position comes from ``bisect_right`` on the critical
      times (ties place the newcomer after existing entries, exactly
      like :func:`insert_by_critical_time`);
    * jobs *before* the position keep their completions bitwise
      unchanged, and σ's invariant (it only grows through accepted
      probes) guarantees they remain feasible — no re-check needed;
    * the candidate and the jobs *after* it are re-folded in the
      reference accumulation order over the cached floats
      (``t += _durs[k]; t >= _thrs[k]``), so each comparison sees the
      same floats :func:`schedule_feasible` would compute on the full
      walk.

    The cached durations and thresholds assume every budget stays fixed
    while one σ is built: no job's ``executed`` cycles, allocation or
    termination may change between the first and the last probe.  That
    holds because σ lives inside a single scheduler ``decide`` call,
    during which the engine advances nothing.

    A probe that fails on the candidate's own completion costs O(log n);
    an accepted or suffix-failing probe also re-folds the suffix.  Callers
    that dispatch only σ's head walk their candidates through
    :meth:`until_settled`: on the burst-overload workload (UAM bursts at
    load 1.6, n≈92 ready jobs) a decision then makes 22 probes, not 90,
    on a σ of 31 jobs, re-folding 12 — the suffix loop, not the
    bisection, is what a probe costs, hence the plain-float arrays.
    """

    __slots__ = ("now", "f_max", "_jobs", "_crit", "_completions", "_durs", "_thrs")

    def __init__(self, now: float, f_max: float):
        self.now = now
        self.f_max = f_max
        self._jobs: List[Job] = []
        self._crit: List[float] = []
        self._completions: List[float] = []
        self._durs: List[float] = []
        self._thrs: List[float] = []

    def __len__(self) -> int:
        return len(self._jobs)

    def __iter__(self):
        return iter(self._jobs)

    @property
    def jobs(self) -> List[Job]:
        """The current σ as a fresh list (critical-time order)."""
        return list(self._jobs)

    @property
    def head(self) -> Optional[Job]:
        return self._jobs[0] if self._jobs else None

    def completions(self) -> List[float]:
        """Predicted completion times, aligned with :attr:`jobs`."""
        return list(self._completions)

    # ------------------------------------------------------------------
    def try_insert(self, job: Job) -> int:
        """Insert ``job`` if σ stays feasible; return its position or -1.

        On success σ is updated in place (all five arrays); on failure σ
        is untouched.  The verdict is bit-identical to
        ``schedule_feasible(insert_by_critical_time(σ, job), now,
        f_max)``.
        """
        crit = self._crit
        pos = bisect_right(crit, job.critical_time)
        completions = self._completions
        t = completions[pos - 1] if pos else self.now
        # Inlined remaining_budget / _deadline_slack, as in job_feasible.
        # ``_allocation`` is the property's cache slot; ``None`` only
        # before first derivation, which setup() has already forced.
        task = job.task
        alloc = task._allocation
        rb = (task.allocation if alloc is None else alloc) - job.executed
        if rb < 0.0:
            rb = 0.0
        dur = rb / self.f_max
        term = job.termination
        mag = term if term > 0.0 else -term
        thr = term - _EPS * (mag if mag > 1.0 else 1.0)
        t += dur
        if t >= thr:
            return -1
        durs = self._durs
        thrs = self._thrs
        suffix = [t]
        for k in range(pos, len(durs)):
            t += durs[k]
            if t >= thrs[k]:
                return -1
            suffix.append(t)
        self._jobs.insert(pos, job)
        crit.insert(pos, job.critical_time)
        durs.insert(pos, dur)
        thrs.insert(pos, thr)
        completions[pos:] = suffix
        return pos

    def until_settled(self, ranked: Sequence[tuple], obs=None) -> Iterable[tuple]:
        """``ranked``'s ``(metric, critical_time, job)`` entries to probe,
        in order; the caller probes each before it takes the next.

        A candidate whose critical time is at least σ's head's bisects
        behind the head or is rejected, so the walk ends once the earliest
        critical time left in ``ranked`` is no earlier than the head's.
        An ``obs`` recording events or metrics gets every entry, as each
        one's INSERT or REJECT is on its record (spans record none).
        """
        if obs is not None and (obs.events is not None or obs.metrics is not None):
            return ranked
        return self._settle(ranked, list(accumulate((e[1] for e in reversed(ranked)), min))[::-1])

    def _settle(self, ranked: Sequence[tuple], floors: List[float]) -> Iterator[tuple]:
        """Yield ``ranked[i]`` while ``floors[i]``, the earliest critical
        time in ``ranked[i:]``, is before σ's head's (or σ is empty)."""
        crit = self._crit
        for entry, floor in zip(ranked, floors):
            if crit and floor >= crit[0]:
                return
            yield entry
