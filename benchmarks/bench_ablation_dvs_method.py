"""AB7 — Algorithm-2 look-ahead vs the safe processor-demand bound.

The paper's Algorithm 2 defers aggressively under an optimistic
static-rate assumption (see repro.core.decide_freq); the processor-
demand alternative is provably safe but hedges against the full UAM
adversary.  The bench quantifies both sides of the trade on bursty
linear-TUF workloads:

* look-ahead uses less energy at mid loads (deeper deferral);
* demand-bound never misses a critical time (its per-task attainment
  is ≥ look-ahead's), and its energy is flat in the burst size ``a``
  while look-ahead's rises (the Figure 3 mechanism).
"""

from repro.core import EUAStar
from repro.experiments import SchedulerSpec, ascii_table

from _ablation_common import mean_metric, run_variants


def _run(seeds, horizon):
    rows = []
    for a in (1, 3):
        out = run_variants(
            [
                SchedulerSpec.of(EUAStar, name="LA", dvs_method="lookahead"),
                SchedulerSpec.of(EUAStar, name="PD", dvs_method="demand"),
                SchedulerSpec.of(EUAStar, name="noDVS", use_dvs=False),
            ],
            load=0.8,
            seeds=seeds,
            horizon=horizon,
            tuf_shape="linear",
            nu=0.3,
            rho=0.9,
            arrival_mode="poisson",
            burst_override=a,
        )
        base = mean_metric(out["noDVS"], lambda r: r.energy)
        rows.append(
            {
                "a": a,
                "lookahead_energy": mean_metric(out["LA"], lambda r: r.energy) / base,
                "demand_energy": mean_metric(out["PD"], lambda r: r.energy) / base,
                "lookahead_utility": mean_metric(out["LA"], lambda r: r.metrics.normalized_utility),
                "demand_utility": mean_metric(out["PD"], lambda r: r.metrics.normalized_utility),
                "fmax_utility": mean_metric(out["noDVS"], lambda r: r.metrics.normalized_utility),
            }
        )
    return rows


def test_ablation_dvs_method(benchmark, bench_seeds, bench_horizon):
    rows = benchmark.pedantic(_run, args=(bench_seeds, bench_horizon), rounds=1, iterations=1)

    a1, a3 = rows
    # Look-ahead defers deeper than the adversary-hedged demand bound
    # for smooth (a=1) arrivals.
    assert a1["lookahead_energy"] <= a1["demand_energy"] + 0.02
    # Burstiness penalises look-ahead (the Figure 3 effect) but leaves
    # the worst-case-hedged demand bound essentially flat.
    assert a3["lookahead_energy"] > a1["lookahead_energy"] - 0.02
    assert abs(a3["demand_energy"] - a1["demand_energy"]) < 0.12
    # The safe demand bound pays its extra energy back in utility: it
    # never accrues less than the optimistic look-ahead and stays close
    # to the f_max ceiling.  (With *decaying* TUFs even f_max cannot
    # reach 1.0 — any nonzero sojourn forfeits some utility — so the
    # pinned-f_max run is the proper reference, not 1.0.)
    for row in rows:
        assert row["demand_utility"] >= row["lookahead_utility"] - 0.02
        assert row["demand_utility"] >= 0.95 * row["fmax_utility"]

    print()
    print("AB7 — DVS rate computation, load 0.8, linear TUFs, poisson-UAM:")
    print(ascii_table(rows, ["a", "lookahead_energy", "demand_energy",
                             "lookahead_utility", "demand_utility", "fmax_utility"]))
