"""AB3 — the f° (UER-optimal frequency) lower bound in decideFreq.

Algorithm 2 line 11 raises the assurance-driven frequency to the
dispatched task's UER-optimal level.  Under E1 (CPU-only energy) the
bound is inert (f° = f_min for step TUFs).  Under E3 (fixed system
power) it is the whole ballgame: without it EUA* degenerates to
LA-EDF's race-to-f_min and *wastes* energy relative to no-DVS.
"""

from repro.core import EUAStar
from repro.experiments import SchedulerSpec

from _ablation_common import mean_metric, run_variants


def _run(seeds, horizon):
    out = {}
    for energy in ("E1", "E3"):
        out[energy] = run_variants(
            [
                SchedulerSpec.of(EUAStar, name="EUA*"),
                SchedulerSpec.of(EUAStar, name="EUA*-noFopt", use_fopt_bound=False),
                SchedulerSpec.of(EUAStar, name="EUA*-fmax", use_dvs=False),
            ],
            load=0.5,
            seeds=seeds,
            horizon=horizon,
            energy=energy,
        )
    return out


def test_ablation_fopt_bound(benchmark, bench_seeds, bench_horizon):
    by_setting = benchmark.pedantic(_run, args=(bench_seeds, bench_horizon), rounds=1, iterations=1)

    print()
    for energy, out in by_setting.items():
        e_full = mean_metric(out["EUA*"], lambda r: r.energy)
        e_nofopt = mean_metric(out["EUA*-noFopt"], lambda r: r.energy)
        e_fmax = mean_metric(out["EUA*-fmax"], lambda r: r.energy)
        print(f"AB3 {energy}: with-f°={e_full/e_fmax:.3f}  "
              f"without-f°={e_nofopt/e_fmax:.3f}  (normalised to f_max)")
        if energy == "E1":
            # Inert bound: the two variants behave alike.
            assert abs(e_full - e_nofopt) / e_fmax < 0.05
        else:
            # E3: dropping the bound wastes energy (worse than no-DVS);
            # keeping it beats no-DVS.
            assert e_nofopt > e_fmax
            assert e_full < e_fmax
