"""Multiprocessor EUA* (repro.mp).

Partitioned and global multicore scheduling on m per-core
:class:`~repro.cpu.Processor` instances behind the uniprocessor
:class:`~repro.sim.scheduler.SchedulerView` contract, with a
a per-active-core uncore energy term.  See ``docs/model.md``
("Multiprocessor extension") for semantics and assumptions.
"""

from .engine import (
    MP_MODES,
    GlobalEngine,
    MPSimulationResult,
    MulticorePlatform,
    simulate_global,
    simulate_mp,
    simulate_partitioned,
)
from .partition import PARTITION_STRATEGIES, Partition, partition_taskset

__all__ = [
    "MP_MODES",
    "PARTITION_STRATEGIES",
    "GlobalEngine",
    "MPSimulationResult",
    "MulticorePlatform",
    "Partition",
    "partition_taskset",
    "simulate_global",
    "simulate_mp",
    "simulate_partitioned",
]
