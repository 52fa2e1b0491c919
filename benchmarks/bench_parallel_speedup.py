"""Wall-clock benchmark: parallel sweep speedup + hot-path microbench.

Run from the repository root::

    PYTHONPATH=src python benchmarks/bench_parallel_speedup.py

Two claims are measured (and asserted when the host can support them):

1. **Sweep speedup** — a multi-seed Figure-2-style sweep at
   ``workers=4`` must finish in at most half the serial wall-clock time
   (>= 2x speedup).  The assertion is gated on the host actually
   exposing >= 4 usable CPUs: on smaller machines the numbers are
   printed but the gate is skipped (a 1-core container cannot
   demonstrate parallel speedup, only pool overhead).

2. **Single-decision microbenchmark** — EUA* with the incremental
   σ-construction fast path must not be slower than the naive reference
   path on a high-load workload (decision cost dominates the run).  The
   differential suite (``tests/properties/test_fastpath_differential``)
   separately proves the two paths are bit-identical in output.
"""

from __future__ import annotations

import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import numpy as np  # noqa: E402

from _artifacts import write_bench_artifact  # noqa: E402
from repro.core import EUAStar  # noqa: E402
from repro.experiments import synthesize_taskset  # noqa: E402
from repro.experiments.figure2 import figure2_units  # noqa: E402
from repro.experiments.parallel import run_units, usable_cpus  # noqa: E402
from repro.sim import Platform, materialize, simulate  # noqa: E402

SWEEP_WORKERS = 4
SWEEP_LOADS = (0.4, 0.8, 1.2, 1.6)
SWEEP_SEEDS = (11, 13, 17, 19, 23, 29, 31, 37)
# Long enough that the serial sweep takes seconds: pool startup and
# pickling must be amortised or the 2x claim would be unfalsifiable.
SWEEP_HORIZON = 2.5

MICRO_LOAD = 1.6
MICRO_HORIZON = 1.5
MICRO_REPEATS = 3
#: Allowed noise margin: the incremental path must be no slower than
#: reference * (1 + margin).
MICRO_MARGIN = 0.10


def bench_sweep_speedup() -> dict:
    units = lambda: figure2_units(  # noqa: E731 - rebuild per run
        loads=SWEEP_LOADS, seeds=SWEEP_SEEDS, horizon=SWEEP_HORIZON
    )
    n = len(units())
    print(f"[sweep] {n} units ({len(SWEEP_LOADS)} loads x {len(SWEEP_SEEDS)} seeds, "
          f"horizon {SWEEP_HORIZON}s)")

    t0 = time.perf_counter()
    serial = run_units(units(), max_workers=1)
    t_serial = time.perf_counter() - t0
    print(f"[sweep] serial      : {t_serial:8.2f} s")

    t0 = time.perf_counter()
    parallel = run_units(units(), max_workers=SWEEP_WORKERS)
    t_parallel = time.perf_counter() - t0
    speedup = t_serial / t_parallel if t_parallel > 0 else float("inf")
    print(f"[sweep] {SWEEP_WORKERS} workers   : {t_parallel:8.2f} s  "
          f"(speedup {speedup:.2f}x)")

    # Value identity is free to check here and catches merge bugs early.
    for s, p in zip(serial, parallel):
        assert s.key == p.key
        for name in s.results:
            assert s.results[name].energy == p.results[name].energy, name
    print("[sweep] parallel results identical to serial: OK")

    cpus = usable_cpus()
    if cpus >= SWEEP_WORKERS:
        assert speedup >= 2.0, (
            f"expected >= 2x speedup at {SWEEP_WORKERS} workers on {cpus} CPUs, "
            f"measured {speedup:.2f}x"
        )
        print(f"[sweep] >= 2x gate on {cpus} CPUs: PASS")
    else:
        print(f"[sweep] >= 2x gate SKIPPED: only {cpus} usable CPU(s); "
              f"need >= {SWEEP_WORKERS}")
    return {
        "sweep_speedup": speedup,
        "sweep_serial_s": t_serial,
        "sweep_parallel_s": t_parallel,
    }


def _time_policy(policy_factory, trace) -> float:
    best = float("inf")
    for _ in range(MICRO_REPEATS):
        t0 = time.perf_counter()
        simulate(trace, policy_factory(), Platform())
        best = min(best, time.perf_counter() - t0)
    return best


def bench_decision_fastpath() -> dict:
    rng = np.random.default_rng(11)
    taskset = synthesize_taskset(MICRO_LOAD, rng)
    trace = materialize(taskset, MICRO_HORIZON, rng)
    print(f"[micro] overloaded workload: {len(trace)} jobs, load {MICRO_LOAD}, "
          f"horizon {MICRO_HORIZON}s, best of {MICRO_REPEATS}")

    t_ref = _time_policy(lambda: EUAStar(incremental=False), trace)
    t_inc = _time_policy(lambda: EUAStar(incremental=True), trace)
    ratio = t_inc / t_ref if t_ref > 0 else float("inf")
    print(f"[micro] reference path  : {t_ref * 1e3:8.1f} ms")
    print(f"[micro] incremental path: {t_inc * 1e3:8.1f} ms  "
          f"(incremental/reference = {ratio:.3f})")
    assert t_inc <= t_ref * (1.0 + MICRO_MARGIN), (
        f"incremental decision path regressed: {t_inc:.4f}s vs "
        f"reference {t_ref:.4f}s (allowed margin {MICRO_MARGIN:.0%})"
    )
    print(f"[micro] no-regression gate (<= {1 + MICRO_MARGIN:.2f}x reference): PASS")
    return {
        "micro_incremental_over_reference": ratio,
        "micro_reference_s": t_ref,
        "micro_incremental_s": t_inc,
    }


def main() -> int:
    metrics = bench_sweep_speedup()
    print()
    metrics.update(bench_decision_fastpath())
    # Wall-clock numbers on shared CI runners are informational; the
    # hard gates live in the asserts above, not in a committed baseline.
    write_bench_artifact(
        "parallel_speedup", metrics,
        directions={k: ("higher" if k == "sweep_speedup" else "lower")
                    for k in metrics},
        meta={"workers": SWEEP_WORKERS, "loads": list(SWEEP_LOADS),
              "seeds": list(SWEEP_SEEDS), "horizon": SWEEP_HORIZON},
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
