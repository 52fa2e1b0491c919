"""AB8 — EUA* vs classical utility accrual (DASA / Locke best-effort).

Separates the paper's two ingredients: *utility accrual* (which DASA
already has) and *energy awareness* (which only EUA* has).  Expected:
equal utility everywhere, with EUA* alone saving energy at underloads.
"""

from repro.core import EUAStar
from repro.experiments import SchedulerSpec, ascii_table
from repro.sched import DASA

from _ablation_common import mean_metric, run_variants


def _run(seeds, horizon):
    rows = []
    for load in (0.6, 1.5):
        out = run_variants(
            [SchedulerSpec.of(EUAStar, name="EUA*"), SchedulerSpec.of(DASA, name="DASA")],
            load=load,
            seeds=seeds,
            horizon=horizon,
        )
        rows.append(
            {
                "load": load,
                "EUA*_utility": mean_metric(out["EUA*"], lambda r: r.metrics.normalized_utility),
                "DASA_utility": mean_metric(out["DASA"], lambda r: r.metrics.normalized_utility),
                "energy_ratio": mean_metric(out["EUA*"], lambda r: r.energy)
                / mean_metric(out["DASA"], lambda r: r.energy),
            }
        )
    return rows


def test_baseline_dasa(benchmark, bench_seeds, bench_horizon):
    rows = benchmark.pedantic(_run, args=(bench_seeds, bench_horizon), rounds=1, iterations=1)

    under, over = rows
    # Utility accrual alone already wins the overload battle ...
    assert over["DASA_utility"] >= 0.85
    assert abs(over["EUA*_utility"] - over["DASA_utility"]) < 0.05
    # ... but the energy story is entirely EUA*'s.
    assert under["energy_ratio"] < 0.7
    assert under["EUA*_utility"] >= under["DASA_utility"] - 0.02

    print()
    print("AB8 — EUA* vs DASA (energy_ratio = E(EUA*)/E(DASA)):")
    print(ascii_table(rows, ["load", "EUA*_utility", "DASA_utility", "energy_ratio"]))
