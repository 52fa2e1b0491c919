"""Kernel microbenchmark: σ construction, one feasibility probe, decideFreq.

Run from the repository root::

    PYTHONPATH=src python benchmarks/bench_sigma_kernels.py

For each ready-set size n in {8, 32, 128, 512} the script builds one
deterministic burst-overload ready set and times, in µs per operation
(best of several batches):

* ``construct_incremental`` — EUA*'s σ construction (Algorithm 1, lines
  12–18) on :class:`~repro.core.IncrementalSchedule`;
* ``construct_reference`` — the same construction with the naive
  copy-and-rewalk oracle (``insert_by_critical_time`` +
  ``schedule_feasible_reference``);
* ``construct_head`` — the head-only construction an unobserved EUA*
  runs: the incremental walk through ``IncrementalSchedule.until_settled``,
  which stops once no candidate left can land before σ's head (the
  probes it makes are printed as ``settled probes`` beside ``probes``,
  the full walk's count);
* ``probe`` — one ``try_insert``: the middle candidate of the UER
  order probed against σ built from all earlier candidates (its suffix
  length and verdict are printed beside it: a probe rejected on the
  candidate's own completion re-folds nothing);
* ``lookahead`` / ``demand`` — the two decideFreq rate kernels
  (``required_rate_lookahead``, ``required_rate_demand``), each on a
  fresh view built from the bare ready list, so every call pays the
  view's one grouping pass (the path of the global engine's per-core
  residual views; the engine's own views copy the job lifecycle's
  pending index instead).

One more row, ``rank``, times EUA*'s lines 10–11 and the UER sort
(``EUAStar._rank``) in µs per decision over every decision of one real
burst-overload trace (the repository benchmark's first, seed 11): the
full pass every ready job goes through when the rank is not kept, and
the rank EUA* keeps between decisions.  Both arms make the same
decisions; the row also prints how many there are and their mean
ready-set size.

Beside the timings it prints the deterministic shape of the full
construction: mean σ length at probe time, mean suffix length (σ
entries at or after the candidate's insertion point, the part a probe
re-folds) and the accept ratio.  ``BENCH_sigma_kernels.json`` has no
committed baseline, so ``check_regression.py`` reports it as
informational only.

The ready set: the 18-task burst task set of the repository benchmark's
burst-overload workload (``synthesize_taskset(1.6, arrival_mode="burst",
burst_override=8)``), n jobs dealt round-robin over its tasks, each
released uniformly within its task's critical time before ``now`` and
every third one a quarter executed.
"""

from __future__ import annotations

import os
import sys
import time
from bisect import bisect_right
from typing import Callable, Dict, List, Sequence, Tuple

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import numpy as np  # noqa: E402

from _artifacts import write_bench_artifact  # noqa: E402
from repro.core import (  # noqa: E402
    EUAStar,
    IncrementalSchedule,
    insert_by_critical_time,
    job_feasible,
    job_uer,
    required_rate_demand,
    required_rate_lookahead,
    schedule_feasible_reference,
)
from repro.cpu import EnergyModel, FrequencyScale  # noqa: E402
from repro.experiments import WorkloadSpec, synthesize_taskset  # noqa: E402
from repro.experiments.parallel import PlatformSpec  # noqa: E402
from repro.sim import Job, simulate  # noqa: E402
from repro.sim.scheduler import SchedulerView, SchedulingEvent  # noqa: E402

SIZES = (8, 32, 128, 512)
SEED = 11
NOW = 2.0
#: Timed batches per kernel; the best batch is reported.
BATCHES = 5
#: Each batch runs long enough (seconds) that timer resolution is noise,
#: up to ``MAX_NUMBER`` calls (fresh states are built before each batch).
BATCH_S = 0.05
MAX_NUMBER = 1024


def ready_view(n: int) -> SchedulerView:
    """The deterministic n-job burst-overload decision point."""
    rng = np.random.default_rng(SEED)
    taskset = synthesize_taskset(1.6, rng, arrival_mode="burst", burst_override=8)
    tasks = list(taskset)
    jobs: List[Job] = []
    releases: Dict[str, List[float]] = {task.name: [] for task in tasks}
    for k in range(n):
        task = tasks[k % len(tasks)]
        release = NOW - float(rng.uniform(0.0, task.critical_time))
        job = Job(task, k // len(tasks), release, task.allocation)
        if k % 3 == 1:
            job.executed = 0.25 * task.allocation
        jobs.append(job)
        releases[task.name].append(release)
    return SchedulerView(
        time=NOW,
        ready=jobs,
        taskset=taskset,
        scale=FrequencyScale.powernow_k6(),
        energy_model=EnergyModel.e1(),
        event=SchedulingEvent.ARRIVAL,
        arrivals_in_window={name: sorted(r) for name, r in releases.items()},
    )


def bare_copy(view: SchedulerView) -> SchedulerView:
    """A new view of the same jobs with no pending map yet (a
    ``without()`` view would filter ``view``'s cached one instead)."""
    return SchedulerView(view.time, view.ready, view.taskset, view.scale,
                         view.energy_model, view.event, view._arrivals_in_window)


def ranked_candidates(view: SchedulerView) -> List[Job]:
    """The jobs EUA* probes, in its probe order: individually feasible,
    positive UER, non-increasing UER (ties: critical time, release,
    index)."""
    t, f_max, model = view.time, view.scale.f_max, view.energy_model
    ranked = []
    for job in view.ready:
        if job_feasible(job, t, f_max):
            uer = job_uer(job, t, f_max, model)
            if uer > 0.0:
                ranked.append((-uer, job.critical_time, job.release, job.index, job))
    ranked.sort(key=lambda e: e[:4])
    return [e[-1] for e in ranked]


def build_incremental(jobs: Sequence[Job], now: float, f_max: float) -> IncrementalSchedule:
    sigma = IncrementalSchedule(now, f_max)
    for job in jobs:
        sigma.try_insert(job)
    return sigma


def build_head_only(entries: Sequence[Tuple[float, float, Job]], now: float,
                    f_max: float) -> Tuple[IncrementalSchedule, int]:
    """σ built until its head is settled, and the probes that took."""
    sigma = IncrementalSchedule(now, f_max)
    probes = 0
    for _, _, job in sigma.until_settled(entries):
        sigma.try_insert(job)
        probes += 1
    return sigma, probes


def build_reference(jobs: Sequence[Job], now: float, f_max: float) -> List[Job]:
    sigma: List[Job] = []
    for job in jobs:
        tentative = insert_by_critical_time(sigma, job)
        if schedule_feasible_reference(tentative, now, f_max):
            sigma = tentative
    return sigma


def construction_shape(jobs: Sequence[Job], now: float, f_max: float) -> Tuple[float, float, float]:
    """(mean σ length, mean suffix length, accept ratio) over the probes."""
    sigma = IncrementalSchedule(now, f_max)
    lengths = suffixes = accepted = 0
    for job in jobs:
        crit = [j.critical_time for j in sigma]
        lengths += len(crit)
        suffixes += len(crit) - bisect_right(crit, job.critical_time)
        accepted += sigma.try_insert(job) >= 0
    probes = max(len(jobs), 1)
    return lengths / probes, suffixes / probes, accepted / probes


def time_fresh(make: Callable[[], object], run: Callable[[object], object]) -> float:
    """Best-of-``BATCHES`` µs per ``run(state)``, each call on a fresh
    ``make()`` state built outside the timed region."""
    number = 1
    while True:
        states = [make() for _ in range(number)]
        t0 = time.perf_counter()
        for state in states:
            run(state)
        elapsed = time.perf_counter() - t0
        if elapsed >= BATCH_S or number >= MAX_NUMBER:
            break
        number *= 4
    best = elapsed
    for _ in range(BATCHES - 1):
        states = [make() for _ in range(number)]
        t0 = time.perf_counter()
        for state in states:
            run(state)
        best = min(best, time.perf_counter() - t0)
    return best / number * 1e6


def time_call(run: Callable[[], object]) -> float:
    """Best-of-``BATCHES`` µs per stateless ``run()``."""
    return time_fresh(lambda: None, lambda _: run())


def bench_size(n: int) -> Dict[str, float]:
    view = ready_view(n)
    now, f_max = view.time, view.scale.f_max
    ranked = ranked_candidates(view)
    sigma_len, suffix_len, accept = construction_shape(ranked, now, f_max)
    assert [j.key for j in build_incremental(ranked, now, f_max)] == \
        [j.key for j in build_reference(ranked, now, f_max)]
    entries = [(0.0, job.critical_time, job) for job in ranked]
    head_only, settled = build_head_only(entries, now, f_max)
    assert head_only.head is build_incremental(ranked, now, f_max).head
    middle = len(ranked) // 2
    earlier, probe = ranked[:middle], ranked[middle]
    before = build_incremental(earlier, now, f_max)
    crit = [j.critical_time for j in before]
    return {
        "construct_incremental_us": time_call(lambda: build_incremental(ranked, now, f_max)),
        "construct_reference_us": time_call(lambda: build_reference(ranked, now, f_max)),
        "construct_head_us": time_call(lambda: build_head_only(entries, now, f_max)),
        "probe_us": time_fresh(lambda: build_incremental(earlier, now, f_max),
                               lambda sigma: sigma.try_insert(probe)),
        "probe_suffix": float(len(crit) - bisect_right(crit, probe.critical_time)),
        "probe_accepted": float(before.try_insert(probe) >= 0),
        "lookahead_us": time_fresh(lambda: bare_copy(view), required_rate_lookahead),
        "demand_us": time_fresh(lambda: bare_copy(view), required_rate_demand),
        "probes": float(len(ranked)),
        "settled_probes": float(settled),
        "sigma_len_mean": sigma_len,
        "suffix_len_mean": suffix_len,
        "accept_ratio": accept,
    }


class _TimedRank(EUAStar):
    """EUA* that times its rank; ``keep=False`` ranks every decision
    with the full pass."""

    def __init__(self, keep: bool):
        super().__init__()
        if not keep:
            self._keep_min_ready = float("inf")
        self.seconds = 0.0
        self.calls = 0
        self.ready = 0

    def _rank(self, view, t, f_m):
        t0 = time.perf_counter()
        out = super()._rank(view, t, f_m)
        self.seconds += time.perf_counter() - t0
        self.calls += 1
        self.ready += len(view.ready)
        return out


def bench_rank() -> Dict[str, float]:
    """Best-of-``BATCHES`` µs per decision of ``EUAStar._rank``, full
    pass and kept, over one burst-overload trace."""
    trace = WorkloadSpec(load=1.6, seed=SEED * 1000, horizon=1.5, arrival_mode="burst",
                         burst_override=8).build()[1]
    platform = PlatformSpec().build()
    row: Dict[str, float] = {}
    for arm, keep in (("full", False), ("kept", True)):
        best = float("inf")
        for _ in range(BATCHES):
            policy = _TimedRank(keep)
            simulate(trace, policy, platform)
            best = min(best, policy.seconds / policy.calls)
        row[f"rank_{arm}_us"] = best * 1e6
    row["rank_decisions"] = float(policy.calls)
    row["rank_ready_mean"] = policy.ready / policy.calls
    return row


def main() -> int:
    columns = ("construct_incremental_us", "construct_reference_us", "construct_head_us",
               "probe_us", "probe_suffix", "probe_accepted", "lookahead_us", "demand_us",
               "probes", "settled_probes", "sigma_len_mean", "suffix_len_mean",
               "accept_ratio")
    header = ("n", "sigma inc us", "sigma ref us", "head only us", "probe us",
              "probe suffix", "accepted", "lookahead us", "demand us", "probes",
              "settled probes", "mean |sigma|", "mean suffix", "accept")
    print("  ".join(f"{h:>12}" for h in header))
    metrics: Dict[str, float] = {}
    for n in SIZES:
        row = bench_size(n)
        print(f"{n:>12}  " + "  ".join(f"{row[c]:>12.4g}" for c in columns))
        metrics.update({f"n{n}_{key}": value for key, value in row.items()})
    rank = bench_rank()
    print(f"rank: {rank['rank_decisions']:.0f} decisions of one burst-overload trace, "
          f"mean ready {rank['rank_ready_mean']:.1f}: full pass {rank['rank_full_us']:.2f} us, "
          f"kept {rank['rank_kept_us']:.2f} us per decision")
    metrics.update(rank)
    path = write_bench_artifact(
        "sigma_kernels", metrics,
        directions={k: "lower" for k in metrics if k.endswith("_us")},
        meta={"sizes": list(SIZES), "seed": SEED, "now": NOW},
    )
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
