"""Discrete-event simulation of a preemptive DVS uniprocessor."""

from .clock import ClockDrift, WallClock
from .engine import Engine, SimulationError, SimulationResult
from .job import Job, JobStatus
from .metrics import Metrics, TaskMetrics
from .runner import Platform, compare, simulate
from .task import Task, TaskModelError, TaskSet
from .trace import Segment, Trace
from .workload import JobSpec, WorkloadTrace, materialize

__all__ = [
    "Task",
    "TaskSet",
    "TaskModelError",
    "Job",
    "JobStatus",
    "JobSpec",
    "WorkloadTrace",
    "materialize",
    "Engine",
    "SimulationResult",
    "SimulationError",
    "Metrics",
    "TaskMetrics",
    "Trace",
    "Segment",
    "Platform",
    "simulate",
    "compare",
    "ClockDrift",
    "WallClock",
]
