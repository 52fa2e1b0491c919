"""Time/utility functions (TUFs) — the paper's timeliness model.

Public API::

    from repro.tuf import StepTUF, LinearTUF, PiecewiseLinearTUF, ...
"""

from .base import TUF, TUFError
from .catalog import plot_correlation, track_association
from .shapes import (
    ExponentialDecayTUF,
    LinearTUF,
    MultiStepTUF,
    PiecewiseLinearTUF,
    QuadraticDecayTUF,
    StepTUF,
    TabulatedTUF,
)

__all__ = [
    "TUF",
    "TUFError",
    "StepTUF",
    "LinearTUF",
    "PiecewiseLinearTUF",
    "MultiStepTUF",
    "ExponentialDecayTUF",
    "QuadraticDecayTUF",
    "TabulatedTUF",
    "track_association",
    "plot_correlation",
]
