"""The process-pool sweep executor (repro.experiments.parallel).

The load-bearing property is **determinism under parallelism**: any
sweep at ``max_workers=4`` must be value-identical to the same sweep at
``max_workers=1`` — per-scheduler utility and energy, job statuses, and
the merged metrics registries.  Plus the plumbing: spec round-trips,
chunking, the serial fallback, and the lambda guard in the ablation
grid.
"""

import warnings

import numpy as np
import pytest

from repro.core import EUAStar
from repro.experiments import synthesize_taskset
from repro.experiments.parallel import (
    CompareUnit,
    PlatformSpec,
    SchedulerSpec,
    WorkloadSpec,
    merged_metrics,
    run_chunked,
    run_sweep,
    run_units,
)
from repro.obs import metrics_to_jsonl
from repro.sched import DASA, EDFStatic, make_scheduler
from repro.sim import Platform, compare, materialize

WORKERS = 4


def _units(collect_metrics=False, loads=(0.5, 1.2), seeds=(11, 13)):
    specs = (
        SchedulerSpec.registry("EUA*"),
        SchedulerSpec.registry("EDF"),
        SchedulerSpec.of(EUAStar, name="noDVS", use_dvs=False),
    )
    return [
        CompareUnit(
            key=(load, seed),
            schedulers=specs,
            workload=WorkloadSpec(load=load, seed=seed, horizon=0.4),
            platform=PlatformSpec(energy="E1"),
            collect_metrics=collect_metrics,
        )
        for load in loads
        for seed in seeds
    ]


# ----------------------------------------------------------------------
# Determinism under parallelism
# ----------------------------------------------------------------------
def test_run_units_parallel_identical_to_serial():
    serial = run_units(_units(), max_workers=1)
    parallel = run_units(_units(), max_workers=WORKERS)
    assert [o.key for o in serial] == [o.key for o in parallel]
    for s, p in zip(serial, parallel):
        assert list(s.results) == list(p.results)  # scheduler order kept
        for name in s.results:
            assert s.results[name].energy == p.results[name].energy
            assert (
                s.results[name].metrics.accrued_utility
                == p.results[name].metrics.accrued_utility
            )
            assert [j.status for j in s.results[name].jobs] == [
                j.status for j in p.results[name].jobs
            ]


def test_merged_metrics_identical_across_worker_counts():
    serial = merged_metrics(run_units(_units(collect_metrics=True), max_workers=1))
    parallel = merged_metrics(
        run_units(_units(collect_metrics=True), max_workers=WORKERS)
    )
    assert set(serial) == set(parallel)
    for name in serial:
        assert metrics_to_jsonl(serial[name]) == metrics_to_jsonl(parallel[name])


def test_compare_workers_identical_to_serial():
    rng = np.random.default_rng(11)
    taskset = synthesize_taskset(0.9, rng)
    trace = materialize(taskset, 0.4, rng)
    schedulers = lambda: [make_scheduler("EUA*"), DASA(), EDFStatic()]  # noqa: E731
    one = compare(schedulers(), trace, platform=Platform(), workers=1)
    four = compare(schedulers(), trace, platform=Platform(), workers=WORKERS)
    assert list(one) == list(four)
    for name in one:
        assert one[name].energy == four[name].energy
        assert one[name].metrics.accrued_utility == four[name].metrics.accrued_utility
        assert [j.status for j in one[name].jobs] == [
            j.status for j in four[name].jobs
        ]


# ----------------------------------------------------------------------
# Specs
# ----------------------------------------------------------------------
def test_scheduler_spec_registry_builds_fresh_instances():
    spec = SchedulerSpec.registry("EUA*")
    a, b = spec.build(), spec.build()
    assert a is not b
    assert a.name == "EUA*"
    assert spec.display_name == "EUA*"


def test_scheduler_spec_of_carries_kwargs():
    spec = SchedulerSpec.of(EUAStar, name="noDVS", use_dvs=False)
    sched = spec.build()
    assert sched.name == "noDVS"
    assert sched.use_dvs is False
    assert spec.display_name == "noDVS"


def test_scheduler_spec_empty_is_an_error():
    with pytest.raises(ValueError):
        SchedulerSpec().build()


def test_workload_spec_build_is_reproducible():
    spec = WorkloadSpec(load=0.8, seed=17, horizon=0.4)
    ts1, tr1 = spec.build()
    ts2, tr2 = spec.build()
    assert len(tr1) == len(tr2)
    assert [(r.task.name, r.release, r.demand) for r in tr1] == [
        (r.task.name, r.release, r.demand) for r in tr2
    ]
    assert [t.allocation for t in ts1] == [t.allocation for t in ts2]


def test_platform_spec_custom_ladder():
    platform = PlatformSpec(energy="E1", scale_levels=(360.0, 1000.0)).build()
    assert tuple(platform.scale.levels) == (360.0, 1000.0)


# ----------------------------------------------------------------------
# Pool mechanics
# ----------------------------------------------------------------------
def test_run_sweep_serial_path_never_touches_pool(monkeypatch):
    import repro.experiments.parallel as par

    def boom(*args, **kwargs):  # pragma: no cover - must not be reached
        raise AssertionError("pool constructed on the serial path")

    monkeypatch.setattr(par, "ProcessPoolExecutor", boom)
    assert run_sweep(abs, [-1, 2, -3], max_workers=1) == [1, 2, 3]


def test_run_sweep_falls_back_to_serial_on_pool_failure(monkeypatch):
    import repro.experiments.parallel as par

    def broken_pool(*args, **kwargs):
        raise OSError("no semaphores in this sandbox")

    monkeypatch.setattr(par, "ProcessPoolExecutor", broken_pool)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = run_sweep(abs, [-1, 2, -3], max_workers=4)
    assert out == [1, 2, 3]
    assert any(issubclass(w.category, RuntimeWarning) for w in caught)


def test_run_sweep_preserves_input_order():
    # chunk size 1 maximises interleaving; order must still hold.
    items = list(range(20))
    assert run_chunked(_str_each, items, None, max_workers=WORKERS, chunk_size=1) == [
        [str(i)] for i in items
    ]
    assert run_sweep(str, items, max_workers=WORKERS) == [str(i) for i in items]


def _str_each(_shared, chunk):
    return [str(i) for i in chunk]


def test_policy_grid_rejects_lambdas_with_workers():
    from repro.experiments import run_policy_grid

    with pytest.raises(ValueError, match="SchedulerSpec"):
        run_policy_grid(
            [lambda: EUAStar()], load=0.5, seeds=(11,), horizon=0.2, workers=2
        )


def test_policy_grid_spec_path_matches_legacy_serial():
    from repro.experiments import run_policy_grid

    legacy = run_policy_grid(
        [lambda: EUAStar(name="EUA*"), lambda: EDFStatic(name="EDF")],
        load=0.8,
        seeds=(11, 13),
        horizon=0.4,
    )
    spec = run_policy_grid(
        [SchedulerSpec.of(EUAStar, name="EUA*"), SchedulerSpec.of(EDFStatic, name="EDF")],
        load=0.8,
        seeds=(11, 13),
        horizon=0.4,
    )
    assert list(legacy) == list(spec)
    for name in legacy:
        assert [r.energy for r in legacy[name]] == [r.energy for r in spec[name]]
        assert [r.metrics.accrued_utility for r in legacy[name]] == [
            r.metrics.accrued_utility for r in spec[name]
        ]
