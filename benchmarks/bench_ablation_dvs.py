"""AB2 — decideFreq on/off.

EUA* with DVS disabled pins f_max: identical utility during underloads
(frequency never causes misses at f_max) but forfeits all energy
savings.  Quantifies what Algorithm 2 is worth.
"""

from repro.core import EUAStar
from repro.experiments import SchedulerSpec

from _ablation_common import mean_metric, run_variants


def _run(seeds, horizon):
    return {
        load: run_variants(
            [
                SchedulerSpec.of(EUAStar, name="EUA*"),
                SchedulerSpec.of(EUAStar, name="EUA*-noDVS", use_dvs=False),
            ],
            load=load,
            seeds=seeds,
            horizon=horizon,
        )
        for load in (0.4, 0.8)
    }


def test_ablation_dvs_on_off(benchmark, bench_seeds, bench_horizon):
    by_load = benchmark.pedantic(_run, args=(bench_seeds, bench_horizon), rounds=1, iterations=1)

    print()
    for load, out in by_load.items():
        e_dvs = mean_metric(out["EUA*"], lambda r: r.energy)
        e_max = mean_metric(out["EUA*-noDVS"], lambda r: r.energy)
        u_dvs = mean_metric(out["EUA*"], lambda r: r.metrics.normalized_utility)
        u_max = mean_metric(out["EUA*-noDVS"], lambda r: r.metrics.normalized_utility)
        ratio = e_dvs / e_max
        assert u_dvs >= u_max - 0.02  # DVS must not cost utility here
        assert ratio < 0.85  # and must buy real energy savings
        print(f"AB2 load={load}: energy(DVS)/energy(f_max) = {ratio:.3f}, "
              f"utility {u_dvs:.3f} vs {u_max:.3f}")
