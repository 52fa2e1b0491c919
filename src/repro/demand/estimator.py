"""On-line / off-line demand profiling (paper Section 2.3).

The paper assumes ``E(Y_i)`` and ``Var(Y_i)`` are "determined through
either online or off-line profiling".  :class:`WelfordEstimator` is the
numerically stable streaming estimator (online path);
:class:`DemandProfiler` aggregates per-task observations and can freeze
them into :class:`~repro.demand.distributions.EmpiricalDemand`
distributions (offline path).
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Dict, Hashable, Iterable, List

from .distributions import DemandError, EmpiricalDemand

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (sim imports demand)
    from ..sim.job import Job

__all__ = ["WelfordEstimator", "DemandProfiler"]


class WelfordEstimator:
    """Streaming mean/variance via Welford's algorithm.

    Exposes both the population variance (``variance``) — the quantity
    the Chebyshev allocation needs when the stream *is* the population —
    and the unbiased sample variance (``sample_variance``).

    **Small-sample contract** (the adaptive runtime's
    :class:`repro.runtime.AdaptiveProfiler` depends on this being
    deterministic, so it is frozen and pinned by tests):

    * ``mean`` and ``variance`` with ``n == 0`` raise
      :class:`~repro.demand.distributions.DemandError` — never a
      ``ZeroDivisionError`` or a NaN falling out of the arithmetic;
    * ``variance`` with ``n == 1`` returns exactly ``0.0`` (a single
      observation *is* its population);
    * ``sample_variance`` with ``n < 2`` raises ``DemandError`` — the
      unbiased estimator is undefined, and returning 0.0 would silently
      understate spread in a Chebyshev allocation.
    """

    def __init__(self) -> None:
        self._n = 0
        self._mean = 0.0
        self._m2 = 0.0

    def update(self, value: float) -> None:
        """Fold one observation into the running moments."""
        if not math.isfinite(value):
            raise DemandError(f"observation must be finite, got {value!r}")
        self._n += 1
        delta = value - self._mean
        self._mean += delta / self._n
        self._m2 += delta * (value - self._mean)

    def update_many(self, values: Iterable[float]) -> None:
        for v in values:
            self.update(v)

    @property
    def count(self) -> int:
        return self._n

    @property
    def mean(self) -> float:
        """Running mean; raises ``DemandError`` when ``n == 0``."""
        if self._n == 0:
            raise DemandError("no observations yet")
        return self._mean

    @property
    def variance(self) -> float:
        """Population variance (M2 / n).

        Raises ``DemandError`` when ``n == 0``; returns exactly ``0.0``
        when ``n == 1`` (see the class small-sample contract).
        """
        if self._n == 0:
            raise DemandError("no observations yet")
        return self._m2 / self._n

    @property
    def sample_variance(self) -> float:
        """Unbiased sample variance (M2 / (n − 1)).

        Raises ``DemandError`` when ``n < 2`` (see the class
        small-sample contract) — callers needing a total function for
        tiny windows should branch to :attr:`variance`.
        """
        if self._n < 2:
            raise DemandError("need at least two observations")
        return self._m2 / (self._n - 1)

    def merge(self, other: "WelfordEstimator") -> "WelfordEstimator":
        """Combine two streams (Chan et al. parallel update); returns self."""
        if other._n == 0:
            return self
        if self._n == 0:
            self._n, self._mean, self._m2 = other._n, other._mean, other._m2
            return self
        n = self._n + other._n
        delta = other._mean - self._mean
        self._m2 += other._m2 + delta * delta * self._n * other._n / n
        self._mean += delta * other._n / n
        self._n = n
        return self


class DemandProfiler:
    """Collects per-task cycle observations and summarises them.

    :meth:`record_completed` folds in the *actual* executed cycles of a
    finished run's completed jobs, closing the profiling loop the paper
    sketches: simulate → profile → re-derive ``c_i`` → re-simulate.
    """

    def __init__(self) -> None:
        self._streams: Dict[Hashable, WelfordEstimator] = {}
        self._raw: Dict[Hashable, List[float]] = {}

    def record(self, task_id: Hashable, cycles: float) -> None:
        if cycles <= 0.0:
            raise DemandError(f"cycles must be > 0, got {cycles!r}")
        self._streams.setdefault(task_id, WelfordEstimator()).update(cycles)
        self._raw.setdefault(task_id, []).append(float(cycles))

    def record_completed(self, jobs: Iterable["Job"]) -> None:
        """Record the executed cycles of every completed job in ``jobs``.

        ``jobs`` is a run's job population (``result.jobs``); only jobs
        with a ``completion_time`` count, folded in completion order
        (stable, so same-instant completions keep the list's order).
        """
        done = [j for j in jobs if j.completion_time is not None]
        done.sort(key=lambda j: j.completion_time)
        for job in done:
            self.record(job.task.name, job.executed)

    def tasks(self) -> List[Hashable]:
        return list(self._streams)

    def count(self, task_id: Hashable) -> int:
        return self._streams[task_id].count if task_id in self._streams else 0

    def mean(self, task_id: Hashable) -> float:
        self._require(task_id)
        return self._streams[task_id].mean

    def variance(self, task_id: Hashable) -> float:
        self._require(task_id)
        return self._streams[task_id].variance

    def empirical_distribution(self, task_id: Hashable) -> EmpiricalDemand:
        """Freeze a task's observations into a resampling distribution."""
        self._require(task_id)
        return EmpiricalDemand(self._raw[task_id])

    def observations(self, task_id: Hashable) -> List[float]:
        self._require(task_id)
        return list(self._raw[task_id])

    def _require(self, task_id: Hashable) -> None:
        if task_id not in self._streams:
            raise DemandError(f"no observations for task {task_id!r}")
