"""AB4 — eager infeasibility abortion inside EUA*.

Algorithm 1 line 10 aborts a job the moment it cannot finish before its
termination time even at f_max.  Disabling that (jobs only die at their
termination exception) wastes the cycles spent on doomed work during
overloads: equal-or-lower utility at equal-or-higher energy.
"""

from repro.core import EUAStar
from repro.experiments import SchedulerSpec

from _ablation_common import mean_metric, run_variants


def _run(seeds, horizon):
    return run_variants(
        [
            SchedulerSpec.of(EUAStar, name="EUA*"),
            SchedulerSpec.of(EUAStar, name="EUA*-noAbort", abort_infeasible=False),
        ],
        load=1.6,
        seeds=seeds,
        horizon=horizon,
    )


def test_ablation_eager_abort(benchmark, bench_seeds, bench_horizon):
    out = benchmark.pedantic(_run, args=(bench_seeds, bench_horizon), rounds=1, iterations=1)

    u_abort = mean_metric(out["EUA*"], lambda r: r.metrics.normalized_utility)
    u_no = mean_metric(out["EUA*-noAbort"], lambda r: r.metrics.normalized_utility)
    upe_abort = mean_metric(out["EUA*"], lambda r: r.metrics.utility_per_energy)
    upe_no = mean_metric(out["EUA*-noAbort"], lambda r: r.metrics.utility_per_energy)
    aborted = mean_metric(out["EUA*"], lambda r: float(r.metrics.aborted))

    assert aborted > 0  # the mechanism actually fires at this load
    assert u_abort >= u_no - 0.02
    assert upe_abort >= upe_no * 0.98  # utility per joule never worse

    print()
    print(f"AB4 at load 1.6: utility abort={u_abort:.3f} vs no-abort={u_no:.3f}; "
          f"utility/energy {upe_abort:.4g} vs {upe_no:.4g}; "
          f"mean aborts/run {aborted:.0f}")
