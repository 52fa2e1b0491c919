#!/usr/bin/env python
"""AWACS tracking scenario — the paper's Figure 1(a)/(b) TUFs, end to end.

The paper motivates TUF scheduling with two defense applications:

* **Track association** (AWACS surveillance, Fig. 1(a)): correlating a
  sensor plot with an existing track keeps its full utility until the
  sensor revisit time ``t_c``; afterwards the track has drifted and the
  association's value falls off linearly.
* **Plot correlation & track maintenance** (coastal air defense,
  Fig. 1(b)): a two-level staircase — a correlation completed within
  ``t_f`` earns ``Uc_max``, within ``2·t_f`` only the lower maintenance
  utility ``Um_max``.

This example builds both TUFs from :mod:`repro.tuf.catalog`, adds a
radar-frame housekeeping task, and runs an overloaded engagement (a
burst of track activity under UAM) under EUA* versus plain EDF —
showing the utility accrual advantage that motivates the paper.
"""

import numpy as np

from repro import (
    BurstUAMArrivals,
    EDFStatic,
    EnergyModel,
    EUAStar,
    NormalDemand,
    Platform,
    StepTUF,
    Task,
    TaskSet,
    UAMSpec,
    compare,
    materialize,
)
from repro.tuf import plot_correlation, track_association

#: Sensor revisit time for the surveillance radar (seconds).
T_C = 0.10
#: Correlation freshness window (seconds).
T_F = 0.25


def build_scenario(intensity: float) -> TaskSet:
    """An engagement: track association bursts + correlation + frames.

    ``intensity`` scales cycle demands (1.0 ~ full CPU at f_max for the
    association bursts alone — a genuine overload).
    """
    # Fig 1(a): full utility 50 until t_c, linear decay to 0 at 2 t_c.
    track_association_tuf = track_association(50.0, T_C)
    # Fig 1(b): Uc_max = 30 until t_f, Um_max = 12 until 2 t_f.
    plot_correlation_tuf = plot_correlation(30.0, 12.0, T_F)
    # A periodic radar frame-processing task with a hard per-frame deadline.
    frame_tuf = StepTUF(height=8.0, deadline=0.040)

    mean_assoc = 55.0 * intensity  # Mcycles per association burst job
    mean_corr = 35.0 * intensity
    mean_frame = 6.0 * intensity

    assoc_spec = UAMSpec(4, 2.0 * T_C)  # up to 4 new tracks per revisit window
    tasks = [
        Task(
            name="track_association",
            tuf=track_association_tuf,
            demand=NormalDemand(mean_assoc, mean_assoc * 1e-6),
            uam=assoc_spec,
            arrivals=BurstUAMArrivals(assoc_spec),
            nu=0.5,  # half the max utility still useful (drifted track)
            rho=0.9,
        ),
        Task(
            name="plot_correlation",
            tuf=plot_correlation_tuf,
            demand=NormalDemand(mean_corr, mean_corr * 1e-6),
            uam=UAMSpec(1, 2.0 * T_F),
            nu=1.0,  # want the fresh-correlation step
            rho=0.9,
        ),
        Task(
            name="radar_frames",
            tuf=frame_tuf,
            demand=NormalDemand(mean_frame, mean_frame * 1e-6),
            uam=UAMSpec(1, 0.040),
            nu=1.0,
            rho=0.96,
        ),
    ]
    return TaskSet(tasks)


def main() -> None:
    platform = Platform.powernow_k6(EnergyModel.e2(1000.0))
    rng = np.random.default_rng(2005)

    for intensity, label in [(0.7, "nominal surveillance"), (1.6, "saturation engagement")]:
        taskset = build_scenario(intensity)
        load = taskset.load(platform.scale.f_max)
        trace = materialize(taskset, 20.0, rng)
        results = compare([EUAStar(), EDFStatic()], trace, platform=platform)
        print(f"\n=== {label} (rho = {load:.2f}, {len(trace)} jobs) ===")
        for name, r in results.items():
            m = r.metrics
            print(f"{name:6s} utility {m.accrued_utility:8.1f} / {m.max_possible_utility:8.1f}"
                  f"  energy {r.energy:10.3e}  aborted {m.aborted:3d}  expired {m.expired:3d}")
            for tname, tm in m.per_task.items():
                print(f"       {tname:18s} accrued {tm.normalized_utility:6.1%}"
                      f"  met-requirement {tm.assurance_attainment:6.1%}")

    print(
        "\nUnder saturation EDF burns its cycles on doomed urgent work (the"
        "\nframe task), while EUA* sheds low-UER jobs and protects the"
        "\nhigh-utility track-association bursts — the paper's motivation."
    )


if __name__ == "__main__":
    main()
