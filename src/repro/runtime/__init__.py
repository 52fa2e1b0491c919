"""Online adaptation layer: profiling, UAM enforcement, admission control.

The paper's scheduler is open-loop — declared task parameters are frozen
by ``offlineComputing`` and trusted forever.  This package closes the
loop at run time: demand drift triggers re-allocation, UAM envelope
violations are policed (shed / defer / admit-and-flag), and overload is
caught at release time instead of discovered mid-execution.  See
``docs/runtime.md`` for the design and the no-op equivalence contract.
"""

from .adaptive import UAM_VIOLATION, AdaptiveRuntime, ArrivalVerdict, RuntimeConfig
from .admission import AdmissionController, AdmissionVerdict
from .drift import CUSUMDrift, DriftDetector, ZScoreDrift, make_drift_detector
from .monitor import UAMComplianceMonitor, Violation, ViolationPolicy
from .profiler import AdaptiveProfiler, DriftReport

__all__ = [
    "AdaptiveRuntime",
    "RuntimeConfig",
    "ArrivalVerdict",
    "UAM_VIOLATION",
    "AdaptiveProfiler",
    "DriftReport",
    "DriftDetector",
    "ZScoreDrift",
    "CUSUMDrift",
    "make_drift_detector",
    "UAMComplianceMonitor",
    "Violation",
    "ViolationPolicy",
    "AdmissionController",
    "AdmissionVerdict",
]
