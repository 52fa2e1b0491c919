"""Long-running scheduler service over the paper's online machinery.

``repro.svc`` turns the simulation stack into a deployable asyncio
service: wall-clock time (:mod:`repro.sim.clock`), HTTP job ingestion
through the UAM compliance monitor and admission controller, registry
schedulers making live dispatch + DVS decisions, and the standard
``repro.obs`` event stream as the wire format.  The load-replay
harness (:mod:`repro.svc.loadgen`) feeds it arrival-registry traffic
and reports sustained throughput, shed rate and deadline-hit rate.
"""

from .core import ServiceCore, SubmitOutcome, UnknownTaskError
from .loadgen import (
    SMOKE_PRESET,
    LoadReport,
    build_schedule,
    run_load_test,
    run_load_test_sync,
)
from .service import SchedulerService

__all__ = [
    "ServiceCore",
    "SubmitOutcome",
    "UnknownTaskError",
    "SchedulerService",
    "LoadReport",
    "build_schedule",
    "run_load_test",
    "run_load_test_sync",
    "SMOKE_PRESET",
]
