"""repro — Energy-Efficient, Utility Accrual Real-Time Scheduling under UAM.

A full reproduction of the DATE 2005 paper by Wu, Ravindran and Jensen:
the EUA* scheduler, the unimodal arbitrary arrival model, time/utility
functions, Martin's system-level energy model, a discrete-event DVS
uniprocessor simulator, the Pillai–Shin RT-DVS baselines, and the
paper's complete experimental evaluation.

Quickstart::

    from repro import (
        Task, TaskSet, StepTUF, NormalDemand, UAMSpec,
        EUAStar, EDFStatic, Platform, compare,
    )

    task = Task("control", StepTUF(height=10.0, deadline=0.05),
                NormalDemand(mean=5.0), UAMSpec(1, 0.05))
    results = compare([EUAStar(), EDFStatic()], TaskSet([task]),
                      platform=Platform.powernow_k6(), horizon=10.0, seed=1)
"""

from .arrivals import (
    ArrivalGenerator,
    BurstUAMArrivals,
    JitteredPeriodicArrivals,
    PeriodicArrivals,
    PoissonUAMArrivals,
    ScatteredUAMArrivals,
    SporadicArrivals,
    UAMSpec,
)
from .core import EUAStar, offline_computing, uer_optimal_frequency
from .cpu import EnergyModel, FrequencyScale, Processor
from .demand import (
    DemandDistribution,
    DeterministicDemand,
    EmpiricalDemand,
    ExponentialDemand,
    GammaDemand,
    NormalDemand,
    UniformDemand,
    chebyshev_allocation,
)
from .runtime import AdaptiveRuntime, RuntimeConfig, ViolationPolicy
from .sched import (
    CCEDF,
    LAEDF,
    Decision,
    EDFStatic,
    Scheduler,
    SchedulerView,
    StaticEDF,
    available_schedulers,
    make_scheduler,
)
from .sim import (
    Job,
    JobStatus,
    Metrics,
    Platform,
    SimulationResult,
    Task,
    TaskSet,
    WorkloadTrace,
    compare,
    materialize,
    simulate,
)
from .tuf import (
    TUF,
    ExponentialDecayTUF,
    LinearTUF,
    MultiStepTUF,
    PiecewiseLinearTUF,
    QuadraticDecayTUF,
    StepTUF,
    TabulatedTUF,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # tuf
    "TUF",
    "StepTUF",
    "LinearTUF",
    "PiecewiseLinearTUF",
    "MultiStepTUF",
    "ExponentialDecayTUF",
    "QuadraticDecayTUF",
    "TabulatedTUF",
    # arrivals
    "UAMSpec",
    "ArrivalGenerator",
    "PeriodicArrivals",
    "JitteredPeriodicArrivals",
    "SporadicArrivals",
    "BurstUAMArrivals",
    "ScatteredUAMArrivals",
    "PoissonUAMArrivals",
    # demand
    "DemandDistribution",
    "DeterministicDemand",
    "NormalDemand",
    "UniformDemand",
    "ExponentialDemand",
    "GammaDemand",
    "EmpiricalDemand",
    "chebyshev_allocation",
    # cpu
    "FrequencyScale",
    "EnergyModel",
    "Processor",
    # sim
    "Task",
    "TaskSet",
    "Job",
    "JobStatus",
    "WorkloadTrace",
    "materialize",
    "Metrics",
    "SimulationResult",
    "Platform",
    "simulate",
    "compare",
    # sched / core
    "Scheduler",
    "SchedulerView",
    "Decision",
    "EDFStatic",
    "StaticEDF",
    "CCEDF",
    "LAEDF",
    "EUAStar",
    "make_scheduler",
    "available_schedulers",
    "offline_computing",
    "uer_optimal_frequency",
    # runtime
    "AdaptiveRuntime",
    "RuntimeConfig",
    "ViolationPolicy",
]
