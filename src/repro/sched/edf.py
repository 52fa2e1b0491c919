"""EDF scheduling policies.

:class:`EDFStatic` is the paper's normaliser: "EDF that always uses the
highest frequency" — every reported utility and energy in Figure 2 is a
ratio against this policy's run on the same workload.

Job selection orders by absolute critical time (for the step TUFs of
the Figure 2 experiments the critical time *is* the deadline, so this
is textbook EDF; Horn's rule makes it optimal during underloads).
"""

from __future__ import annotations

from typing import Optional

from ..obs import EventKind
from ..sim.scheduler import Decision, Scheduler, SchedulerView, _pending_key
from ..sim.job import Job

__all__ = ["edf_pick", "EDFStatic"]


def edf_pick(view: SchedulerView) -> Optional[Job]:
    """Earliest-critical-time pending job (ties: release, then index).

    Expired jobs that a no-abort policy left pending keep their old
    critical times and therefore sort first — the cause of the domino
    effect the paper attributes to `-NA` during overloads.

    A view that already holds its pending map (every job lifecycle view)
    with fewer task groups than ready jobs is answered from the groups'
    heads; any other view is scanned (with no fewer groups than jobs
    the ready set is small, and the scan is usually the cheaper walk).
    Both give the same job.
    """
    ready = view.ready
    if not ready:
        return None
    pending = view._pending
    if pending is None or len(pending) >= len(ready):
        return min(ready, key=_pending_key)
    # Each group is sorted by ``_pending_key`` with equal keys in ready
    # order, so the least task head is the scan's pick — unless two
    # heads tie on the whole key: then the scan finds the one first in
    # ready order.
    best = None
    tie = False
    for group in pending.values():
        if group:
            key = _pending_key(group[0])
            if best is None or key < best_key:
                best, best_key, tie = group[0], key, False
            elif key == best_key:
                tie = True
    return min(ready, key=_pending_key) if tie else best


class EDFStatic(Scheduler):
    """EDF at a pinned frequency (default ``f_max``): the normaliser.

    ``abort_expired=True`` gives the abortion-capable variant used as
    the baseline denominator; ``abort_expired=False`` is plain EDF-NA.
    """

    def __init__(
        self,
        name: str = "EDF",
        frequency: Optional[float] = None,
        abort_expired: bool = True,
    ):
        self.name = name
        self._frequency = frequency
        self.abort_expired = bool(abort_expired)

    def decide(self, view: SchedulerView) -> Decision:
        f = self._frequency if self._frequency is not None else view.scale.f_max
        if f not in view.scale:
            f = view.scale.at_least(f)
        job = edf_pick(view)
        obs = self.observer
        if obs is not None and job is not None:
            obs.emit(view.time, EventKind.SELECT, job.key, source=self.name,
                     deadline=job.critical_time, frequency=f)
        return Decision(job=job, frequency=f)
