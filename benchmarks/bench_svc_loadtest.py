"""Scheduler-service load replay: the PR 10 throughput/quality gate.

Run from the repository root::

    PYTHONPATH=src python benchmarks/bench_svc_loadtest.py

Spins an in-process :class:`repro.svc.SchedulerService` on an ephemeral
loopback port and replays the smoke preset (Table-1 synthesis at load
0.8, Poisson arrivals, 4 emulated seconds compressed 25x onto the wall
clock over 4 persistent connections).  Three claims are checked:

1. **Sustained ingestion** — the service must absorb >= 1000 jobs/s of
   loopback submissions (asserted outright; the acceptance criterion).
2. **Bounded shedding** — the UAM + admission gates shed a bounded
   fraction under the 0.8-load replay (baseline ``limit`` entry).
3. **Deadline quality** — completions keep hitting critical times under
   wall-clock dispatch (baseline ``limit`` entry), and clock drift
   stays in the low-millisecond range (informational).

Wall-clock sensitive metrics are gated with absolute ``limit`` floors
(not value baselines) so slower CI runners have headroom; the nominal
reference-container numbers are ~1500 jobs/s, shed ~0.12, hit ~0.90.
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from _artifacts import write_bench_artifact  # noqa: E402
from repro.svc import SMOKE_PRESET, run_load_test_sync  # noqa: E402

MIN_JOBS_PER_S = 1000.0


def main() -> int:
    print(f"[svc] load replay: {SMOKE_PRESET}")
    report = run_load_test_sync(**SMOKE_PRESET)
    print(report.render())

    assert report.errors == 0, f"{report.errors} transport/server errors"
    assert report.jobs_per_s >= MIN_JOBS_PER_S, (
        f"sustained {report.jobs_per_s:.0f} jobs/s < {MIN_JOBS_PER_S:.0f} floor"
    )
    print(f"[svc] >= {MIN_JOBS_PER_S:.0f} jobs/s gate: PASS")

    write_bench_artifact(
        "svc_loadtest", report.metrics(), directions=report.directions(),
        meta={**SMOKE_PRESET, "submitted": report.submitted,
              "min_jobs_per_s": MIN_JOBS_PER_S},
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
