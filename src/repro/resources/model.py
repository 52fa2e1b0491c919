"""Shared-resource model (after the paper's companion, EMSOFT'04 [17]).

The DATE'05 paper cites its resource-constrained companion for the
Theorem 2–5 proofs ("Energy-Efficient, Utility Accrual Scheduling under
Resource Constraints").  This package implements that dimension in its
clean single-unit form:

* a resource, named by a string, is serially reusable, single-unit
  and non-preemptable (a lock, a DMA channel, a radio);
* a task declares the set of resources each of its jobs holds for the
  *whole* of its execution (whole-job critical sections — acquisition
  when the job first runs, release when it completes or is aborted).
  Whole-job sections make acquisition atomic, so deadlock is impossible
  by construction and the interesting problem — *who to run when the
  best job is blocked* — stays front and centre;
* :class:`ResourceMap` binds task names to resource sets and answers
  blocking queries against a scheduler view.

Mutual exclusion is a **scheduler obligation**, deliberately not an
engine feature: the engine stays policy-neutral and the
:mod:`repro.resources.audit` module verifies, from the recorded trace,
that no two holders of a resource ever interleaved.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Set

from ..sim.job import Job
from ..sim.scheduler import SchedulerView

__all__ = ["ResourceMap", "ResourceError"]


class ResourceError(ValueError):
    """Raised for ill-formed resource declarations."""


class ResourceMap:
    """Task-name → resource-set bindings plus blocking queries.

    A job *holds* its task's resources from its first executed cycle
    until it leaves the pending set (completion, abortion, expiry) —
    the engine removes finished jobs from the ready list, so "pending
    with ``executed > 0``" is exactly the holder condition.
    """

    def __init__(self, requirements: Mapping[str, Iterable[str]]):
        self._req: Dict[str, FrozenSet[str]] = {}
        for task_name, resources in requirements.items():
            rs = frozenset(str(r) for r in resources)
            for r in rs:
                if not r:
                    raise ResourceError(f"empty resource name for task {task_name!r}")
            self._req[task_name] = rs

    # ------------------------------------------------------------------
    def resources_of(self, task_name: str) -> FrozenSet[str]:
        return self._req.get(task_name, frozenset())

    @property
    def all_resources(self) -> Set[str]:
        out: Set[str] = set()
        for rs in self._req.values():
            out |= rs
        return out

    # ------------------------------------------------------------------
    def holders(self, view: SchedulerView) -> Dict[str, Job]:
        """Current holder of each held resource.

        With whole-job sections and atomic acquisition there is at most
        one started unfinished job per resource.
        """
        held: Dict[str, Job] = {}
        for job in view.ready:
            if job.executed <= 0.0:
                continue
            for r in self.resources_of(job.task.name):
                held[r] = job
        return held

    def blocker_of(self, job: Job, view: SchedulerView) -> Optional[Job]:
        """The job currently blocking ``job``, if any.

        ``job`` is blocked when some resource it needs is held by a
        *different* started unfinished job.
        """
        needs = self.resources_of(job.task.name)
        if not needs:
            return None
        for holder_resource, holder in self.holders(view).items():
            if holder_resource in needs and holder is not job:
                return holder
        return None

    def is_blocked(self, job: Job, view: SchedulerView) -> bool:
        return self.blocker_of(job, view) is not None

    def blocked_jobs(self, view: SchedulerView) -> List[Job]:
        return [j for j in view.ready if self.is_blocked(j, view)]
