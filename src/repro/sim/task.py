"""Tasks and task sets (paper Section 2.1–2.2).

A :class:`Task` bundles everything the paper attaches to ``T_i``:

* a non-increasing unimodal TUF ``U_i`` whose relative termination time
  equals the UAM window ``P_i`` in the paper's convention (Section 2.2);
  the library allows it to differ;
* a UAM arrival envelope ``⟨a_i, P_i⟩`` and a concrete arrival
  generator honouring it;
* a stochastic cycle demand ``Y_i``;
* the statistical requirement ``{ν_i, ρ_i}``.

Derived quantities used throughout the schedulers (Section 3.1) are
cached properties: the Chebyshev allocation ``c_i``, the critical time
``D_i``, and the per-window worst-case cycles ``C_i = a_i · c_i``.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Optional

from ..arrivals import ArrivalGenerator, PeriodicArrivals, UAMSpec
from ..demand import DemandDistribution, chebyshev_allocation
from ..tuf import TUF, StepTUF

__all__ = ["Task", "TaskSet", "TaskModelError"]


class TaskModelError(ValueError):
    """Raised for inconsistent task definitions."""


def _spec_implies(tight: UAMSpec, loose: UAMSpec) -> bool:
    """Whether every ``tight``-compliant stream is ``loose``-compliant.

    Sufficient (and used) conditions:

    * ``a' <= a`` and ``P' >= P`` — any window of length ``P`` sits inside
      a window of length ``P'``;
    * otherwise cover the ``P`` window with ``ceil(P / P')`` windows of
      length ``P'``: compliance needs ``a' · ceil(P / P') <= a``.
    """
    a_t, p_t = tight.max_arrivals, tight.window
    a_l, p_l = loose.max_arrivals, loose.window
    tol = 1e-9 * max(1.0, p_l)
    if a_t <= a_l and p_t >= p_l - tol:
        return True
    covers = math.ceil((p_l - tol) / p_t)
    return a_t * covers <= a_l


class Task:
    """One application task ``T_i``.

    Parameters
    ----------
    name:
        Unique identifier within a :class:`TaskSet`.
    tuf:
        The job time constraint, relative to each release.
    demand:
        Per-job cycle demand distribution ``Y_i`` (Mcycles).
    uam:
        The arrival envelope ``⟨a_i, P_i⟩``.
    arrivals:
        Concrete arrival generator; defaults to strictly periodic with
        period ``P_i`` (the UAM special case ``⟨1, P⟩`` pattern, also
        used for ``a > 1`` specs only if explicitly passed).
    nu, rho:
        The statistical requirement: accrue at least ``nu`` of the
        maximum utility with probability at least ``rho``.
    abortable:
        Whether the exception raised at the termination time aborts the
        job (paper Section 2.2).  Disabled for `-NA` comparisons.
    """

    def __init__(
        self,
        name: str,
        tuf: TUF,
        demand: DemandDistribution,
        uam: UAMSpec,
        arrivals: Optional[ArrivalGenerator] = None,
        nu: float = 1.0,
        rho: float = 0.96,
        abortable: bool = True,
    ):
        if not name:
            raise TaskModelError("task name must be non-empty")
        if not (0.0 <= nu <= 1.0):
            raise TaskModelError(f"nu must lie in [0, 1], got {nu!r}")
        if not (0.0 <= rho < 1.0):
            raise TaskModelError(f"rho must lie in [0, 1), got {rho!r}")
        if isinstance(tuf, StepTUF) and nu not in (0.0, 1.0):
            raise TaskModelError("step TUFs admit nu in {0, 1} only (paper Section 2.2)")
        if arrivals is None:
            if uam.max_arrivals != 1:
                raise TaskModelError(
                    "an explicit arrival generator is required when a > 1 "
                    "(the default periodic pattern only matches <1, P>)"
                )
            arrivals = PeriodicArrivals(uam.window)
        if not _spec_implies(arrivals.spec, uam):
            raise TaskModelError(
                f"arrival generator spec {arrivals.spec} is not contained in "
                f"the task UAM envelope {uam}"
            )
        self.name = name
        self.tuf = tuf
        self.demand = demand
        self.uam = uam
        self.arrivals = arrivals
        self.nu = float(nu)
        self.rho = float(rho)
        self.abortable = bool(abortable)
        self._allocation: Optional[float] = None
        self._critical_time: Optional[float] = None
        self._dvs_static: Optional[tuple] = None

    # ------------------------------------------------------------------
    # Derived parameters (paper Section 3.1)
    # ------------------------------------------------------------------
    @property
    def allocation(self) -> float:
        """Chebyshev cycle allocation ``c_i`` for ``Pr[Y < c] >= rho``."""
        if self._allocation is None:
            self._allocation = chebyshev_allocation(
                self.demand.mean, self.demand.variance, self.rho
            )
        return self._allocation

    @property
    def critical_time(self) -> float:
        """Critical time ``D_i`` from ``nu = U(D)/U_max`` (relative).

        Must be positive: Theorem 1's rate ``C_i / D_i`` divides by it
        (``nu = 1`` on a linear TUF gives ``D_i = 0``).
        """
        if self._critical_time is None:
            d = self.tuf.critical_time(self.nu)
            if not d > 0.0:
                raise TaskModelError(
                    f"task {self.name!r}: nu={self.nu!r} gives critical time {d!r} "
                    f"under {self.tuf!r}; it must be > 0")
            self._critical_time = d
        return self._critical_time

    @property
    def window_cycles(self) -> float:
        """``C_i = a_i · c_i`` — worst-case cycles per UAM window."""
        return self.uam.max_arrivals * self.allocation

    @property
    def min_feasible_frequency(self) -> float:
        """Theorem 1: all jobs meet ``D_i`` iff run at ``f >= C_i / D_i``."""
        return self.window_cycles / self.critical_time

    def utilization(self, frequency: float) -> float:
        """``C_i / (D_i · f)`` — fraction of the CPU at ``frequency``."""
        if frequency <= 0.0:
            raise TaskModelError(f"frequency must be > 0, got {frequency!r}")
        return self.min_feasible_frequency / frequency

    def dvs_static(self) -> tuple:
        """``(a_i, c_i, D_i, C_i/D_i, C_i)`` — the static per-task
        parameters the ``decideFreq`` kernel folds every decision.

        Cached once and invalidated by :meth:`reallocate` (the only
        post-construction mutation), so the hot loop pays one attribute
        access instead of re-deriving five properties per task per
        decision.  Each element is produced by the same expression the
        un-cached path evaluates, keeping downstream floats
        bit-identical.
        """
        static = self._dvs_static
        if static is None:
            a = self.uam.max_arrivals
            c = self.allocation
            d = self.critical_time
            # rate: task.window_cycles / task.critical_time; cap: C_i.
            static = self._dvs_static = (a, c, d, (a * c) / d, a * c)
        return static

    def reallocate(self, allocation: float) -> None:
        """Override the Chebyshev allocation ``c_i`` with a profiled value.

        This is the *only* supported mutation of a task after
        construction, and it exists for the online adaptation layer
        (:mod:`repro.runtime`): when observed demand drifts away from
        the declared distribution, the runtime re-derives ``c_i`` from
        the profiled moments and installs it here so every consumer —
        job budgets, ``remaining_window_cycles``, ``decideFreq`` — sees
        the refreshed value.  Callers that share the task set across
        runs must restore the original allocation afterwards (the
        runtime's ``finalize()`` does) and must invalidate the
        ``offlineComputing`` memo (:func:`repro.core.offline.invalidate_offline_cache`)
        before re-deriving scheduler parameters.
        """
        if allocation <= 0.0 or not math.isfinite(allocation):
            raise TaskModelError(f"allocation must be finite and > 0, got {allocation!r}")
        self._allocation = float(allocation)
        self._dvs_static = None

    # ------------------------------------------------------------------
    def scaled_demand(self, k: float) -> "Task":
        """A copy of the task with demand ``k · Y`` (load sweeps).

        ``c_i`` scales linearly with ``k`` because both the mean and the
        standard deviation do (the paper scales ``E(Y)`` by ``k`` and
        ``Var(Y)`` by ``k²``).
        """
        return Task(
            name=self.name,
            tuf=self.tuf,
            demand=self.demand.scaled(k),
            uam=self.uam,
            arrivals=self.arrivals,
            nu=self.nu,
            rho=self.rho,
            abortable=self.abortable,
        )

    def with_requirement(self, nu: float, rho: float) -> "Task":
        """A copy with a different statistical requirement ``{ν, ρ}``."""
        return Task(
            name=self.name,
            tuf=self.tuf,
            demand=self.demand,
            uam=self.uam,
            arrivals=self.arrivals,
            nu=nu,
            rho=rho,
            abortable=self.abortable,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Task({self.name!r}, uam=<{self.uam.max_arrivals},{self.uam.window}>, "
            f"c={self.allocation:.3f}, D={self.critical_time:.4f})"
        )


class TaskSet:
    """An ordered collection of uniquely named tasks."""

    def __init__(self, tasks: Iterable[Task]):
        self._tasks: List[Task] = list(tasks)
        names = [t.name for t in self._tasks]
        if len(set(names)) != len(names):
            raise TaskModelError(f"duplicate task names in {names}")
        if not self._tasks:
            raise TaskModelError("task set must be non-empty")

    def __iter__(self):
        return iter(self._tasks)

    def __len__(self) -> int:
        return len(self._tasks)

    def __getitem__(self, index: int) -> Task:
        return self._tasks[index]

    def by_name(self, name: str) -> Task:
        for t in self._tasks:
            if t.name == name:
                return t
        raise KeyError(name)

    @property
    def names(self) -> List[str]:
        return [t.name for t in self._tasks]

    # ------------------------------------------------------------------
    def load(self, f_max: float) -> float:
        """System load ``ϱ = (1/f_m) Σ C_i / D_i`` (paper Section 5)."""
        if f_max <= 0.0:
            raise TaskModelError(f"f_max must be > 0, got {f_max!r}")
        return sum(t.min_feasible_frequency for t in self._tasks) / f_max

    def scaled_to_load(self, target_load: float, f_max: float) -> "TaskSet":
        """Scale every task's demand by one constant ``k`` to hit
        ``target_load`` (the paper's workload knob).

        ``c_i`` is linear in ``k``, so ``k = target / current``.
        """
        if target_load <= 0.0:
            raise TaskModelError(f"target load must be > 0, got {target_load!r}")
        current = self.load(f_max)
        k = target_load / current
        return TaskSet(t.scaled_demand(k) for t in self._tasks)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"TaskSet({self.names!r})"
