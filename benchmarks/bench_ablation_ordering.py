"""AB1 — UER ordering vs energy-oblivious utility density.

EUA* orders pending jobs by utility per unit *energy* (UER); classical
UA schedulers order by utility per *cycle*.  At f_max the two orderings
coincide up to the constant E(f_m) — on a uniprocessor with one shared
energy model the rankings are identical, so during overloads the two
variants shed the same jobs.  This bench verifies that equivalence (the
UER metric's value-add is the *frequency* dimension, exercised by the
f° bound — see bench_ablation_fopt) and reports both variants' utility.
"""

from repro.core import EUAStar
from repro.experiments import SchedulerSpec

from _ablation_common import mean_metric, run_variants


def _run(seeds, horizon):
    return run_variants(
        [
            SchedulerSpec.of(EUAStar, name="EUA*"),
            SchedulerSpec.of(EUAStar, name="EUA*-UD", ordering="utility_density"),
        ],
        load=1.5,
        seeds=seeds,
        horizon=horizon,
    )


def test_ablation_uer_vs_utility_density(benchmark, bench_seeds, bench_horizon):
    out = benchmark.pedantic(_run, args=(bench_seeds, bench_horizon), rounds=1, iterations=1)

    u_uer = mean_metric(out["EUA*"], lambda r: r.metrics.normalized_utility)
    u_ud = mean_metric(out["EUA*-UD"], lambda r: r.metrics.normalized_utility)
    # With a single energy model the per-job ranking at f_max coincides:
    # the accrued utilities agree to simulation noise.
    assert abs(u_uer - u_ud) < 0.02, (u_uer, u_ud)
    # Overload: both stay well above the urgency-only policies (the
    # EDF-family utility at this load is < 0.9, see Figure 2 benches).
    assert u_uer >= 0.85

    print()
    print(f"AB1 ordering ablation at load 1.5: UER={u_uer:.3f}  UD={u_ud:.3f}")
