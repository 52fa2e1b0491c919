"""The unimodal arbitrary arrival model (UAM).

A UAM specification ``⟨a, P⟩`` (Hermant & Le Lann, ICDCS'98; paper
Section 2.1) bounds a task's arrival process: **at most ``a`` job arrivals
occur during any sliding time window of length ``P``**.  Arrivals may be
simultaneous.  The periodic model is the special case ``⟨1, P⟩`` with the
bound tight both ways.

Window semantics: we use half-open windows ``[t, t + P)``.  A sorted
arrival sequence ``t_1 <= t_2 <= ...`` is compliant iff
``t_{k+a} - t_k >= P`` for every ``k`` — i.e. the (a+1)-th next arrival
falls outside the window opened by the k-th.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence

__all__ = [
    "UAMSpec",
    "UAMError",
    "effective_window",
    "max_count_in_any_window",
    "is_uam_compliant",
    "first_violation",
    "next_admissible_time",
    "thin_to_uam",
]


class UAMError(ValueError):
    """Raised for ill-formed UAM specifications or sequences."""


#: Relative tolerance for window comparisons: gaps produced by float
#: arithmetic (e.g. ``k * P`` accumulation) may undershoot ``P`` by a few
#: ulps; such gaps are treated as spanning the full window.
_TOL_REL = 1e-9


def effective_window(window: float) -> float:
    """The window shrunk by the comparison tolerance.

    This is the **single source of truth for the boundary**: a gap of
    exactly ``P`` (or undershooting it by at most a few ulps of float
    accumulation) spans the full window, so an arrival landing exactly
    at the trailing edge ``t = t_prev + P`` opens a *new* window and
    never counts against the old one.  Every consumer — the compliance
    checks below, the runtime's compliance monitor and the generators'
    thinning — compares gaps against this shrunk window so their
    notions of "inside the window" can never diverge.
    """
    return window - _TOL_REL * max(1.0, abs(window))


#: Backwards-compatible private alias (pre-1.1 internal name).
_effective_window = effective_window


@dataclass(frozen=True)
class UAMSpec:
    """Unimodal arbitrary arrival specification ``⟨a, P⟩``.

    Attributes
    ----------
    max_arrivals:
        ``a`` — the maximum number of arrivals in any sliding window.
    window:
        ``P`` — the sliding window length (seconds).
    """

    max_arrivals: int
    window: float

    def __post_init__(self) -> None:
        if self.max_arrivals < 1:
            raise UAMError(f"max_arrivals must be >= 1, got {self.max_arrivals!r}")
        if not (self.window > 0.0) or not math.isfinite(self.window):
            raise UAMError(f"window must be finite and > 0, got {self.window!r}")

    @property
    def is_periodic_equivalent(self) -> bool:
        """``⟨1, P⟩`` — the periodic model as a UAM special case."""
        return self.max_arrivals == 1

    @property
    def peak_rate(self) -> float:
        """Worst-case long-run arrival rate ``a / P`` (jobs per second)."""
        return self.max_arrivals / self.window

    def scaled(self, time_factor: float) -> "UAMSpec":
        """Return the spec with its window stretched by ``time_factor``."""
        if time_factor <= 0.0:
            raise UAMError(f"time factor must be > 0, got {time_factor!r}")
        return UAMSpec(self.max_arrivals, self.window * time_factor)


def _check_sorted(times: Sequence[float]) -> None:
    for a, b in zip(times, times[1:]):
        if b < a:
            raise UAMError("arrival times must be sorted non-decreasingly")


def max_count_in_any_window(times: Sequence[float], window: float) -> int:
    """Maximum number of arrivals in any sliding half-open window.

    Runs in O(n) over the sorted sequence with a two-pointer sweep; the
    worst window always starts at an arrival instant.
    """
    if window <= 0.0:
        raise UAMError(f"window must be > 0, got {window!r}")
    _check_sorted(times)
    w = _effective_window(window)
    best = 0
    lo = 0
    for hi, t in enumerate(times):
        while t - times[lo] >= w:
            lo += 1
        best = max(best, hi - lo + 1)
    return best


def is_uam_compliant(times: Sequence[float], spec: UAMSpec) -> bool:
    """Whether the sorted sequence satisfies ``⟨a, P⟩``."""
    return first_violation(times, spec) is None


def first_violation(times: Sequence[float], spec: UAMSpec):
    """Index of the first arrival that overflows a window, or ``None``.

    If ``times[k + a] - times[k] < P`` for some ``k``, arrival ``k + a`` is
    the (a+1)-th within the window opened at ``times[k]``; the smallest
    such ``k + a`` is returned.
    """
    _check_sorted(times)
    a = spec.max_arrivals
    w = _effective_window(spec.window)
    for k in range(len(times) - a):
        if times[k + a] - times[k] < w:
            return k + a
    return None


def next_admissible_time(recent: Sequence[float], spec: UAMSpec, t: float) -> float:
    """Earliest instant ``>= t`` at which one more arrival keeps the
    stream ``⟨a, P⟩``-compliant, given the sorted arrivals already
    accepted (only the last ``a`` matter).

    With fewer than ``a`` prior arrivals — or with the a-th most recent
    at least the (tolerance-shrunk) window before ``t`` — the answer is
    ``t`` itself; otherwise the window opened by the a-th most recent
    arrival must close first: ``recent[-a] + P``.  Shares
    :func:`effective_window` with the compliance checks, so an arrival
    admitted at the returned instant always passes
    :func:`is_uam_compliant`.
    """
    a = spec.max_arrivals
    if len(recent) < a:
        return t
    anchor = recent[-a]
    if t - anchor >= effective_window(spec.window):
        return t
    return anchor + spec.window


def thin_to_uam(times: Sequence[float], spec: UAMSpec) -> List[float]:
    """Greedily drop arrivals so the sequence satisfies ``⟨a, P⟩``.

    Keeps every arrival that does not overflow the window opened by the
    a-th previous *kept* arrival.  Used to derive UAM-compliant traces
    from unconstrained processes (e.g. Poisson).
    """
    _check_sorted(times)
    kept: List[float] = []
    a = spec.max_arrivals
    w = _effective_window(spec.window)
    for t in times:
        if len(kept) < a or t - kept[-a] >= w:
            kept.append(t)
    return kept
