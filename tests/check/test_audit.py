"""The post-hoc audit (`repro.check.audit`) over multicore results, and
how an attached checker runs it: once per run, over the outermost
result, in every engine mode."""

import numpy as np
import pytest

from repro.check import InvariantChecker, audit
from repro.experiments import synthesize_taskset
from repro.mp import MulticorePlatform, simulate_mp
from repro.obs import Observer
from repro.sim import Platform, materialize
from repro.sim.job import JobStatus
from repro.sim.workload import JobSpec, WorkloadTrace


def _trace(cores=2, load=0.8, seed=11, horizon=0.3):
    rng = np.random.default_rng(seed)
    return materialize(synthesize_taskset(load * cores, rng), horizon, rng)


class _Recording(InvariantChecker):
    """Collect-mode checker that records every result it audits and can
    doctor it first (``tamper``)."""

    def __init__(self, tamper=None):
        super().__init__(mode="collect")
        self.audited = []
        self._tamper = tamper

    def audit(self, result, observer):
        self.audited.append(result)
        if self._tamper is not None:
            self._tamper(result)
        super().audit(result, observer)


@pytest.mark.parametrize("mode", ["partitioned", "global"])
def test_run_is_audited_once_over_the_outermost_result(mode):
    platform = MulticorePlatform.from_platform(Platform(), cores=2)
    checker = _Recording()
    result = simulate_mp(_trace(), "EUA*", platform, mode=mode, checker=checker)
    assert checker.audited == [result]
    assert checker.violations == []


def test_global_run_accepts_a_checker():
    # The live hooks run in the shared loop: a corrupt UAM stream is
    # caught in global mode exactly as on one core.
    platform = MulticorePlatform.from_platform(Platform(), cores=2)
    trace = _trace(cores=2, load=1.6)
    task = trace.taskset[0]
    first = next(spec for spec in trace if spec.task is task)
    extra = JobSpec(task, 10_000, first.release, first.demand)
    trace = WorkloadTrace(trace.taskset, trace.horizon, [*trace.jobs, extra])
    checker = InvariantChecker(mode="collect")
    result = simulate_mp(trace, "EUA*", platform, mode="global", checker=checker)
    assert result.mode == "global"
    assert {v.invariant for v in checker.violations} == {"uam_envelope"}


def test_tampered_partitioned_result_reports_each_violation_once():
    platform = MulticorePlatform.from_platform(Platform(), cores=2)
    doctored = {}

    def tamper(result):
        job = next(j for j in result.jobs
                   if j.status is JobStatus.COMPLETED and j.accrued_utility > 0.0)
        job.accrued_utility *= 0.5  # still inside [0, Umax]
        result.per_core_stats[1].energy += 1.0
        doctored["job"] = job.key

    checker = _Recording(tamper)
    observer = Observer(events=True, metrics=False)
    simulate_mp(_trace(), "EUA*", platform, mode="partitioned", observer=observer,
                checker=checker)
    found = [(v.invariant, v.job) for v in checker.violations]
    assert sorted(found, key=str) == sorted([
        ("utility_accrual", doctored["job"]),
        ("metrics_consistency", None),
        ("energy_conservation", None),
        ("MP4-energy-conservation", None),
    ], key=str)
    assert "core 1" in next(v.detail for v in checker.violations
                            if v.invariant == "energy_conservation")
    # Reported on the run's own observer, once each and with no core tag.
    emitted = [e for e in observer.events if e.kind.value == "invariant_violation"]
    assert [(e.fields["invariant"], e.job) for e in emitted] == found
    assert all("core" not in e.fields for e in emitted)


def test_audit_reads_a_global_result_core_by_core():
    platform = MulticorePlatform.from_platform(Platform(), cores=2)
    result = simulate_mp(_trace(), "EUA*", platform, mode="global")
    model, idle = platform.energy_model, platform.idle_power
    assert audit(result, model, idle) == []
    # Replay a core-0 busy slot on core 1 at the same instant: the job
    # now runs on both cores at once, and core 1 no longer tiles.
    busy = next(seg for seg in result.core_segments[0] if seg.job_key is not None)
    result.core_segments[1].append(busy)
    keys = {v.invariant for v in audit(result, model, idle)}
    assert {"MP1-dual-execution", "timeline_tiling", "cycle_conservation"} <= keys
