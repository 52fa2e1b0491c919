"""Named TUFs from the paper's Figure 1.

Ready-made constructors for the motivating application time constraints
(AWACS surveillance [4], coastal air defense [12]), parameterised the
way the applications parameterise them.
"""

from __future__ import annotations

from .base import TUF, TUFError
from .shapes import MultiStepTUF, PiecewiseLinearTUF

__all__ = ["track_association", "plot_correlation"]


def track_association(max_utility: float, revisit_time: float) -> TUF:
    """Fig. 1(a) — AWACS track association [4].

    Associating a sensor plot with a track retains full utility until
    the sensor revisit time ``t_c`` (the track has not moved beyond the
    gate yet); afterwards utility decays linearly to zero at ``2·t_c``
    as the track position prediction degrades.
    """
    if revisit_time <= 0.0:
        raise TUFError(f"revisit time must be > 0, got {revisit_time!r}")
    return PiecewiseLinearTUF(
        [(0.0, max_utility), (revisit_time, max_utility), (2.0 * revisit_time, 0.0)]
    )


def plot_correlation(
    correlation_utility: float,
    maintenance_utility: float,
    freshness_window: float,
) -> TUF:
    """Fig. 1(b) — coastal air defense plot correlation & track
    maintenance [12].

    Completing within ``t_f`` earns the full correlation utility
    ``Uc_max``; within ``2·t_f`` only the lower track-maintenance
    utility ``Um_max``; later, nothing.
    """
    if not (0.0 < maintenance_utility < correlation_utility):
        raise TUFError(
            "need 0 < maintenance utility < correlation utility, got "
            f"({maintenance_utility!r}, {correlation_utility!r})"
        )
    if freshness_window <= 0.0:
        raise TUFError(f"freshness window must be > 0, got {freshness_window!r}")
    return MultiStepTUF(
        [(freshness_window, correlation_utility),
         (2.0 * freshness_window, maintenance_utility)]
    )

