"""``decideFreq()`` — EUA*'s stochastic DVS step (Algorithm 2).

Two rate computations are provided; both answer "how fast must the CPU
run *now* so every task can still meet its critical time, budgeting
each job its Chebyshev allocation?".

:func:`required_rate_lookahead` (the default for EUA*)
    The literal Algorithm 2 listing — Pillai–Shin-style look-ahead
    deferral ("similar to [13]", the paper notes): visit tasks in
    latest-critical-time-first order, defer each task's remaining
    window cycles past the earliest critical time ``D_n^a`` under the
    assumption that earlier-critical-time tasks consume their *static*
    worst-case rate, and run only the residue ``s`` before ``D_n^a``.
    The static-rate assumption is optimistic when an earlier task's
    current job is concentrated near its critical time, so pathological
    phasings (e.g. harmonic windows with equal rates) can leave a job a
    few cycles short at moderate loads — within the *statistical*
    tolerance ``1 − ρ`` the requirement model grants, and consistent
    with the slack-misprediction behaviour the paper's Figure 3
    discussion describes.  On the paper's Table 1 workloads it meets
    every critical time during underloads.

:func:`required_rate_demand`
    The **processor demand approach [3]** the paper's Section 3.3 opens
    with, evaluated online: for every pending critical-time point ``d``
    sum the remaining budgets due by ``d`` plus the worst-case cycles
    the UAM envelopes can still inject with critical times ``<= d``
    (remaining arrivals of each task's current window plus later
    windows, released as early as the ``⟨a, P⟩`` constraint admits).
    The required rate is the max over points of ``demand / (d − t)``.
    Running at any frequency at or above it preserves feasibility at
    every re-evaluation — a deterministic guarantee, at the price of
    hedging against the full UAM adversary (its energy is flat in the
    burst size ``a`` because the worst-case future is a-independent).
    Available as ``EUAStar(dvs_method="demand")`` and benchmarked as an
    ablation; see EXPERIMENTS.md for the measured difference.

Kernel / reference pairing
--------------------------
Both rate computations are implemented twice: an optimized *kernel*
(the canonical name, used by the hot path) and a straight-line
``*_reference`` transliteration of the algorithm.  The kernels rewrite
the per-call work — the per-task ``(D^a, C^r)`` fold reads the view's
pending groups (maintained by the job lifecycle) instead of re-scanning
the ready list per task, static rates are priced once per task instead
of twice, and the
demand kernel enumerates each task's worst-case arrival sequence once
and counts per deadline point by bisection instead of re-enumerating
per point — but every float is produced by the same expression in the
same order, so the results are **bit-identical**.  The differential
suite (``tests/core/test_kernel_equivalence.py``) pins kernel ≡
reference under Hypothesis, and the golden decision logs pin the full
observable behaviour.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from operator import itemgetter
from typing import Dict, List, Set, Tuple

from ..cpu import FrequencyScale
from ..obs import EventKind
from ..sim.job import Job
from ..sim.scheduler import SchedulerView
from ..sim.task import Task
from .offline import TaskParams

__all__ = [
    "decide_freq",
    "required_rate",
    "required_rate_demand",
    "required_rate_demand_reference",
    "required_rate_lookahead",
    "required_rate_lookahead_reference",
    "future_cycles_due",
]

_EPS = 1e-12

_first = itemgetter(0)

#: Safety cap on the worst-case arrival enumeration (a horizon of this
#: many windows is far beyond any deferral span that matters).
_MAX_FUTURE_ARRIVALS = 4096


def future_cycles_due(view: SchedulerView, task: Task, until: float) -> float:
    """Worst-case cycles from *future* releases of ``task`` whose
    critical times land at or before ``until``.

    Enumerates the earliest-admissible arrival sequence the ``⟨a, P⟩``
    envelope allows given the releases already observed in the trailing
    window: each future job is budgeted ``c_i`` and owes it by
    ``arrival + D_i``.
    """
    t = view.time
    d_rel = task.critical_time
    if t + d_rel > until + _EPS:
        return 0.0
    a = task.uam.max_arrivals
    window = task.uam.window
    history: List[float] = view.recent_arrival_times(task)
    count = 0
    for _ in range(_MAX_FUTURE_ARRIVALS):
        if len(history) < a:
            s = t
        else:
            s = max(t, history[-a] + window)
        if s + d_rel > until + _EPS:
            break
        history.append(s)
        count += 1
    return count * task.allocation


def _future_critical_times(view: SchedulerView, task: Task, until: float) -> List[float]:
    """``s_k + D_i`` for the earliest-admissible future arrival sequence,
    enumerated once up to ``until`` (the largest deadline point).

    The sequence itself does not depend on the query point — a smaller
    ``until`` simply takes a prefix — so the demand kernel counts
    arrivals per point with :func:`bisect.bisect_right` on this array.
    Every element is produced by the exact additions
    :func:`future_cycles_due` performs, keeping counts bit-identical.
    """
    t = view.time
    d_rel = task.critical_time
    out: List[float] = []
    if t + d_rel > until + _EPS:
        return out
    a = task.uam.max_arrivals
    window = task.uam.window
    history: List[float] = view.recent_arrival_times(task)
    for _ in range(_MAX_FUTURE_ARRIVALS):
        if len(history) < a:
            s = t
        else:
            s = max(t, history[-a] + window)
        due = s + d_rel
        if due > until + _EPS:
            break
        history.append(s)
        out.append(due)
    return out


def required_rate_demand(view: SchedulerView) -> float:
    """Online processor-demand bound (see module docstring).

    Returns the minimum execution rate (MHz) that covers, for every
    candidate critical-time point, all budgeted work due by it.

    Kernel notes: pending budgets and critical times are read once into
    parallel arrays (the per-point fold then walks plain tuples in the
    reference's ready order), and each task's worst-case arrival
    sequence is enumerated once up to the furthest point, with the
    per-point count taken by bisection.  ``max`` over points is
    order-independent, so iterating points in sorted order is safe.
    Bit-identical to :func:`required_rate_demand_reference`.
    """
    t = view.time
    f_max = view.scale.f_max
    points: Set[float] = set()
    for job in view.ready:
        points.add(job.critical_time)
    for task in view.taskset:
        # The earliest future job's critical time can be the binding
        # point even when nothing of this task is pending.
        s = view.next_admissible_arrival(task)
        points.add(s + task.critical_time)
    if not points:
        return 0.0
    ordered = sorted(points)
    d_max = ordered[-1]
    # Key precomputation: each job's (D^a, c^r) priced once, in ready
    # order (the fold below must repeat the reference's accumulation
    # order); each task's future-arrival critical times enumerated once.
    job_due: List[Tuple[float, float]] = [
        (job.critical_time, job.remaining_budget) for job in view.ready
    ]
    task_due: List[Tuple[List[float], float]] = [
        (_future_critical_times(view, task, d_max), task.allocation)
        for task in view.taskset
    ]
    rate = 0.0
    for d in ordered:
        horizon = d - t
        d_eps = d + _EPS
        if horizon <= _EPS:
            # A pending job is at (or past) its critical time: no slack.
            if any(due <= d_eps and budget > 0.0 for due, budget in job_due):
                return f_max
            continue
        demand = 0.0
        for due, budget in job_due:
            if due <= d_eps:
                demand += budget
        for futures, allocation in task_due:
            demand += bisect_right(futures, d_eps) * allocation
        point_rate = demand / horizon
        if point_rate > rate:
            rate = point_rate
    return min(rate, f_max)


def required_rate_demand_reference(view: SchedulerView) -> float:
    """The straight-line processor-demand fold — one full pass over the
    ready list and every task's arrival enumeration *per point*.  The
    equivalence oracle for :func:`required_rate_demand`."""
    t = view.time
    points: Set[float] = set()
    for job in view.ready:
        points.add(job.critical_time)
    for task in view.taskset:
        s = view.next_admissible_arrival(task)
        points.add(s + task.critical_time)
    rate = 0.0
    for d in points:
        horizon = d - t
        if horizon <= _EPS:
            if any(
                j.critical_time <= d + _EPS and j.remaining_budget > 0.0
                for j in view.ready
            ):
                return view.scale.f_max
            continue
        demand = 0.0
        for job in view.ready:
            if job.critical_time <= d + _EPS:
                demand += job.remaining_budget
        for task in view.taskset:
            demand += future_cycles_due(view, task, d)
        rate = max(rate, demand / horizon)
    return min(rate, view.scale.f_max)


def required_rate_lookahead(view: SchedulerView) -> float:
    """Literal Algorithm 2, lines 2–9 (look-ahead deferral).

    *Every* task is visited in latest-critical-time-first order and has
    its static worst-case rate subtracted from ``util`` as it is
    visited — including tasks with no remaining window cycles, which
    contribute no residue ``s`` but must not keep their phantom
    utilisation pinned in ``util`` (that would shrink the headroom of
    every later entry and inflate the required rate versus the literal
    listing, costing energy).  Zero-demand tasks are still excluded
    from the deferral anchor ``D_n^a``: a task with nothing left to run
    in its window cannot be the binding earliest critical time.

    Kernel notes: one pass over the task set reads the view's pending
    map and arrival windows directly — inlining
    ``earliest_critical_time`` / ``remaining_window_cycles`` — and
    takes each task's static rate ``C_i / D_i`` from its cached
    :meth:`~repro.sim.task.Task.dvs_static` once (the reference
    computes it twice, in the utilisation sum and again in the
    deferral loop; the float is identical either way).  The
    ``max``/``min`` calls of the fold are comparisons that pick the
    same operand.  Bit-identical to
    :func:`required_rate_lookahead_reference`.
    """
    t = view.time
    f_m = view.scale.f_max
    pending_map = view._pending_map()
    windows = view._arrivals_in_window
    # One fused pass: util fold (reference's sum()), the (D^a, C^r)
    # entries, and the deferral anchor D_n over tasks with work left.
    util = 0.0
    d_n = math.inf
    entries: List[Tuple[float, float, float]] = []
    append = entries.append
    for task in view.taskset:
        # (a_i, c_i, D_i, C_i/D_i, C_i), cached across decisions.
        a, allocation, d_rel, rate, cap = task.dvs_static()
        util += rate
        group = pending_map.get(id(task))
        if group:
            head = group[0]
            d_a = head.critical_time
            # head.remaining_budget, with ``allocated`` already in hand.
            head_remaining = allocation - head.executed
            if head_remaining < 0.0:
                head_remaining = 0.0
            n_pending = len(group)
            count = a if a < n_pending else n_pending  # min(a, len(pending))
            work = (count - 1) * allocation + head_remaining
        else:
            d_a = t + d_rel
            work = 0.0
        recent = windows.get(task.name)
        unseen = a - (len(recent) if recent is not None else 0)
        if unseen < 0:
            unseen = 0
        c_r = work + unseen * allocation
        if c_r > cap:
            c_r = cap
        if c_r > 0.0 and d_a < d_n:
            d_n = d_a
        append((d_a, c_r, rate))
    if d_n == math.inf:
        return 0.0
    # Latest-critical-time-first ("reverse EDF order of tasks", line 4).
    # ``reverse=True`` keeps Timsort's stability, so equal critical
    # times stay in task-set order exactly like the reference's
    # ``key=lambda e: -e[0]`` form.
    entries.sort(key=_first, reverse=True)
    s = 0.0
    for d_a, c_r, rate in entries:
        util -= rate
        if c_r <= 0.0:
            # Nothing of this task left in the window: no residue, and
            # its static rate is now released to the remaining entries.
            continue
        gap = d_a - d_n
        if gap <= _EPS:
            # Same critical time as the earliest: nothing can be
            # deferred past D_n^a (line 7's special case).
            x = c_r
        else:
            # Cycles that *must* run before D_n^a so the task can still
            # finish by d_a given that `util` MHz are consumed by
            # earlier-critical-time tasks after D_n^a (line 6):
            # min(c_r, max(0, c_r - max(0, f_m - util) * gap)).
            headroom = f_m - util
            if not headroom > 0.0:
                headroom = 0.0
            x = c_r - headroom * gap
            if not x > 0.0:
                x = 0.0
            if not x < c_r:
                x = c_r
            # The deferred work becomes this task's post-D_n demand (line 7).
            util += (c_r - x) / gap
        s += x
    horizon = d_n - t
    if horizon <= _EPS:
        return f_m
    required = s / horizon
    return required if required < f_m else f_m  # min(f_m, s / horizon)


def required_rate_lookahead_reference(view: SchedulerView) -> float:
    """The straight-line Algorithm 2 transliteration, going through the
    view's public accessors per task.  The equivalence oracle for
    :func:`required_rate_lookahead`."""
    t = view.time
    tasks = list(view.taskset)
    entries: List[Tuple[float, float, Task]] = [
        (view.earliest_critical_time(task), view.remaining_window_cycles(task), task)
        for task in tasks
    ]
    demands = [d for d, c_r, _ in entries if c_r > 0.0]
    if not demands:
        return 0.0
    f_m = view.scale.f_max
    # Worst-case aggregate demand rate (Theorem 1 utilisation analysis).
    util = sum(task.window_cycles / task.critical_time for task in tasks)
    d_n = min(demands)
    entries.sort(key=lambda e: -e[0])
    s = 0.0
    for d_a, c_r, task in entries:
        util -= task.window_cycles / task.critical_time
        if c_r <= 0.0:
            continue
        gap = d_a - d_n
        if gap <= _EPS:
            x = c_r
        else:
            headroom = max(0.0, f_m - util)
            x = min(c_r, max(0.0, c_r - headroom * gap))
            util += (c_r - x) / gap
        s += x
    horizon = d_n - t
    if horizon <= _EPS:
        return f_m
    return min(f_m, s / horizon)


#: ``required_rate`` is the paper's Algorithm 2 computation (the EUA*
#: default); ``required_rate_demand`` is the provably safe alternative.
required_rate = required_rate_lookahead

_RATE_METHODS = {
    "demand": required_rate_demand,
    "lookahead": required_rate_lookahead,
}


def decide_freq(
    view: SchedulerView,
    exec_job: Job,
    params: Dict[str, TaskParams],
    use_fopt_bound: bool = True,
    method: str = "lookahead",
    observer=None,
    source: str = "decide_freq",
) -> float:
    """Full ``decideFreq()``: the frequency at which to run ``exec_job``.

    The assurance-driven rate (lines 2–9, per ``method``) is quantised
    up the ladder (``selectFreq``, saturating at ``f_m`` — line 9's
    overload cap) and finally raised to the UER-optimal frequency
    ``f°`` of the dispatched job's task (line 11): running below ``f°``
    would cost more *system* energy per cycle, so EUA* may increase —
    never decrease — the frequency (``use_fopt_bound=False`` is the AB3
    ablation knob).

    With an :class:`repro.obs.Observer` attached, each call emits a
    ``FREQ_DECISION`` event carrying the chosen level, the raw required
    rate, and the UAM look-ahead window ``[t, D_n^a]`` that justified it
    (the deferral anchor — the earliest critical time among tasks with
    remaining window cycles).  The diagnostics are computed only on the
    observed path.
    """
    try:
        rate_fn = _RATE_METHODS[method]
    except KeyError:
        raise ValueError(f"unknown DVS method {method!r}; expected {sorted(_RATE_METHODS)}")
    scale: FrequencyScale = view.scale
    rate = rate_fn(view)
    f_req = scale.select_capped(rate)
    f_exe = f_req
    if use_fopt_bound:
        f_opt = params[exec_job.task.name].optimal_frequency
        f_exe = max(f_exe, f_opt)
    if observer is not None and observer.events is not None:
        anchor = min(
            (
                view.earliest_critical_time(task)
                for task in view.taskset
                if view.remaining_window_cycles(task) > 0.0
            ),
            default=math.inf,
        )
        observer.emit(
            view.time,
            EventKind.FREQ_DECISION,
            exec_job.key,
            source=source,
            frequency=f_exe,
            required_rate=rate,
            method=method,
            window_start=view.time,
            window_end=anchor,
            fopt_raised=f_exe > f_req,
        )
    return f_exe
