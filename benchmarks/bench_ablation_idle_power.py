"""AB6 — idle-power sensitivity.

The paper's per-cycle formulation implies zero idle energy (our
default).  Charging non-zero idle power *without* a sleep state mainly
penalises the race-to-idle baseline: EDF at f_max finishes early and
idles most of the horizon, while DVS stretches execution and barely
idles.  The normalised energy of EUA* therefore holds or improves as
idle power grows — quantifying how much of the no-DVS case rests on
the free-idling assumption.
"""

from repro.core import EUAStar
from repro.experiments import SchedulerSpec, ascii_table, energy_setting
from repro.sched import EDFStatic

from _ablation_common import mean_metric, run_variants


def _run(seeds, horizon):
    model = energy_setting("E1")
    p_fmin = model.power(360.0)
    rows = []
    for frac in (0.0, 0.1, 0.3):
        out = run_variants(
            [SchedulerSpec.of(EUAStar, name="EUA*"), SchedulerSpec.of(EDFStatic, name="EDF")],
            load=0.5,
            seeds=seeds,
            horizon=horizon,
            idle_power=frac * p_fmin,
        )
        e_eua = mean_metric(out["EUA*"], lambda r: r.energy)
        e_edf = mean_metric(out["EDF"], lambda r: r.energy)
        rows.append({"idle_power_frac": frac, "norm_energy": e_eua / e_edf})
    return rows


def test_ablation_idle_power(benchmark, bench_seeds, bench_horizon):
    rows = benchmark.pedantic(_run, args=(bench_seeds, bench_horizon), rounds=1, iterations=1)

    ratios = [r["norm_energy"] for r in rows]
    # DVS keeps a real advantage at zero idle power ...
    assert ratios[0] < 0.6
    # ... and the advantage holds (or grows) as idling costs more:
    # EDF idles most of the horizon, EUA* barely idles.
    assert all(b <= a + 1e-9 for a, b in zip(ratios, ratios[1:])), ratios

    print()
    print("AB6 — idle power sweep (fraction of P(f_min)), load 0.5, E1:")
    print(ascii_table(rows, ["idle_power_frac", "norm_energy"]))
