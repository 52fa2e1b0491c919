"""The five benchmark workloads and the metrics they report.

Every workload is a pure function of ``--seed`` (the program only
receives the inputs generated from it), runs for about ``--seconds``,
checks its own outputs, and reports the same end-to-end metrics:

``throughput``
    work completed per second; the unit of work is the workload's
    (see each class);
``peak_rss_mb`` and ``setup_s``
    measured around the workload by ``worker.py`` and ``run.py``.

Work that keeps its CPUs busy (the simulations, the campaign pool, the
service's closed loop and stream reads) is timed at nominal host speed
(:mod:`speed`), each operation or window scaled on its own.  A latency
beside ``throughput`` would repeat it: each workload's unit operation
runs alone, so its time is the inverse of the rate.  The service's
open-loop verdict latency, which is not, goes to ``results.json``.

A traced run (:func:`measure` with ``trace=True``) runs the workload
once untraced and once with :mod:`tracing` installed, and reports the
:data:`PER_LAYER` metrics.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import statistics
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import speed
import tracing

DEFAULT_SEED = 11

#: (name, unit, better, bound): the end-to-end metrics of every workload.
#: Over five sets of ten runs (each another seed) on a shared 2-vCPU
#: host, no throughput spread (IQR over median) exceeded 7.5%
#: (burst-overload), no memory spread 5.4%, and set medians moved by at
#: most 4.1% (set-up: 5.2%).
END_TO_END: Tuple[Tuple[str, str, str, float], ...] = (
    ("throughput", "1/s", "higher", 0.10),
    ("peak_rss_mb", "MiB", "lower", 0.10),
    ("setup_s", "s", "lower", 0.10),
)

#: (name, unit, better): the per-layer metrics of a traced run.  Times
#: are only listed for ``repro.core``, which every workload runs; the
#: time of a layer only some workloads run is reported as its share of
#: the traced wall time, and ``layers.json`` carries the absolute
#: numbers.  Metrics of a layer a workload does not run read 0.
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    ("core.eua_decide_calls", "count", "lower"),
    ("core.eua_decide_s", "s", "lower"),
    ("core.eua_decide_p50_us", "us", "lower"),
    ("core.ready_n_p50", "count", "lower"),
    ("core.ready_n_max", "count", "lower"),
    ("core.sigma_try_insert_calls", "count", "lower"),
    ("core.sigma_try_insert_s", "s", "lower"),
    ("core.sigma_accept_ratio", "ratio", "higher"),
    ("core.decide_freq_calls", "count", "lower"),
    ("core.decide_freq_s", "s", "lower"),
    ("core.offline_computing_s", "s", "lower"),
    ("share.sim", "fraction", "lower"),
    ("share.core", "fraction", "lower"),
    ("share.sched", "fraction", "lower"),
    ("share.mp", "fraction", "lower"),
    ("share.svc", "fraction", "lower"),
    ("share.svc_wait", "fraction", "lower"),
    ("share.runtime", "fraction", "lower"),
    ("share.obs", "fraction", "lower"),
    ("trace.coverage", "fraction", "higher"),
    ("trace.overhead", "fraction", "lower"),
    ("sim.engine_decisions", "count", "lower"),
    ("mp.migrations", "count", "lower"),
    ("pool.pickled_bytes", "bytes", "lower"),
    ("pool.worker_utilisation", "fraction", "higher"),
    ("svc.server_cpu_util", "fraction", "lower"),
    ("svc.verdict_samples", "count", "higher"),
    ("runtime.rejected", "count", "lower"),
    ("runtime.evicted", "count", "lower"),
    ("runtime.shed_uam", "count", "lower"),
    ("obs.events_logged", "count", "lower"),
    ("obs.stream_bytes", "bytes", "lower"),
    ("loadgen.sent", "count", "higher"),
)

#: EUA*'s utility and energy over EDF's on the same jobs, and the share
#: of the offered utility EUA* accrued, per simulation workload at the
#: default seed.  They are exact: a change that moves them changed
#: scheduling behaviour, not speed.
PINS: Dict[str, Dict[str, float]] = {
    "mc-campaign": {
        "norm_utility": 1.0, "norm_energy": 0.4956986633055187, "utility_ratio": 1.0,
    },
    "burst-overload": {
        "norm_utility": 1.0709002527771787, "norm_energy": 0.9979343803556106,
        "utility_ratio": 0.9426039031232181,
    },
    "mp-global": {
        "norm_utility": 0.9726441833643923, "norm_energy": 0.5703863171100775,
        "utility_ratio": 0.9726441833643923,
    },
}

#: Fewest campaigns mc-campaign runs (a repeat must reproduce the first).
MIN_CAMPAIGNS = 2


@dataclass
class Check:
    name: str
    ok: bool
    detail: str = ""


@dataclass
class Outcome:
    """One measured run of a workload."""

    throughput: float
    #: Operations attempted (simulations, campaigns' replications, HTTP
    #: requests) and those that failed at the transport level.
    operations: int
    errors: int = 0
    checks: List[Check] = field(default_factory=list)
    #: Deterministic behaviour numbers (EUA* vs EDF), pinned at the
    #: default seed.
    quality: Dict[str, float] = field(default_factory=dict)
    #: Workload-specific numbers for ``results.json``.
    diagnostics: Dict[str, object] = field(default_factory=dict)
    #: Filled by traced runs: the :data:`PER_LAYER` values, and the
    #: per-process span tables and raw spans behind them.
    layers: Dict[str, float] = field(default_factory=dict)
    processes: List[dict] = field(default_factory=list)
    raw_spans: List[Tuple[str, list]] = field(default_factory=list)

    @property
    def failed(self) -> int:
        return self.errors + sum(1 for c in self.checks if not c.ok)


def _empty_layers() -> Dict[str, float]:
    return {name: 0.0 for name, _unit, _better in PER_LAYER}


def _quantile(values: Sequence[float], q: float) -> float:
    """Nearest-rank quantile (``q`` in [0, 1])."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def _pin_check(name: str, seed: int, quality: Dict[str, float]) -> List[Check]:
    pins = PINS.get(name)
    if pins is None or seed != DEFAULT_SEED:
        return []
    return [
        Check(f"pinned-{key}", quality.get(key) == value, f"{quality.get(key)!r} != {value!r}")
        for key, value in pins.items()
    ]


def _process_entry(label: str, tracer, wall: float, coverage: float) -> dict:
    return {
        "process": label,
        "wall_s": wall,
        "coverage": coverage,
        "spans": tracing.span_table(tracer, wall),
        "raw_spans_dropped": tracer.raw_dropped,
    }


@contextmanager
def _pinned(cpu: int) -> Iterator[None]:
    """Keep this process on one CPU, so one probe watches all it runs on."""
    previous = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {cpu})
    try:
        yield
    finally:
        os.sched_setaffinity(0, previous)


class Workload:
    """One named set of inputs, built from a seed."""

    name = ""
    why = ""

    def __init__(self, seed: int = DEFAULT_SEED, root: Optional[Path] = None,
                 work_dir: Optional[Path] = None):
        self.seed = seed
        self.root = root if root is not None else Path(__file__).resolve().parents[2]
        self.work_dir = work_dir

    def setup(self) -> None:
        """Build the inputs (and start a service); counted in ``setup_s``."""

    def run(self, seconds: float, tracer: Optional[tracing.LayerTracer] = None) -> Outcome:
        raise NotImplementedError

    def close(self) -> None:
        """Stop every process the workload started."""


# ----------------------------------------------------------------------
# Simulation workloads
# ----------------------------------------------------------------------
class McCampaign(Workload):
    """Monte-Carlo assurance campaigns on a two-worker pool.

    Unit of work: one replication (a fresh Table-1 task set and trace
    simulated under EUA* and EDF).  The same 128-replication campaign
    runs repeatedly; ``throughput`` is the replications over the
    campaigns' summed time at nominal host speed, pool start included.
    The pool keeps both CPUs busy, so both are probed.
    """

    name = "mc-campaign"
    why = ("many short simulations with a small ready set: per-event engine overhead "
           "and the pool/campaign layers carry the cost, not the EUA* kernels")
    REPLICATIONS = 128
    WORKERS = 2

    def setup(self) -> None:
        from repro.stats import CampaignConfig

        self.config = CampaignConfig(
            load=0.8, horizon=1.0, schedulers=("EUA*", "EDF"),
            n_replications=self.REPLICATIONS,
            base_seed=self.seed * 1000,
        )

    def run(self, seconds: float, tracer: Optional[tracing.LayerTracer] = None) -> Outcome:
        from repro.obs import Telemetry
        from repro.stats import run_campaign

        restore = None
        dump_dir = None
        if tracer is not None:
            dump_dir = self.work_dir / "workers"
            shutil.rmtree(dump_dir, ignore_errors=True)
            dump_dir.mkdir(parents=True)
            tracer.dump_dir = dump_dir
            restore = tracing.install(tracer)
        intervals: List[Tuple[float, float]] = []
        results = []
        telemetries = []
        try:
            with speed.Host() as host:
                start = perf_counter()
                while len(intervals) < MIN_CAMPAIGNS or perf_counter() - start < seconds:
                    telemetry = Telemetry() if tracer is not None else None
                    if tracer is not None:
                        tracer.request = len(intervals)
                        tracer.enter("bench.campaign")
                    t0 = perf_counter()
                    results.append(run_campaign(self.config, workers=self.WORKERS,
                                                telemetry=telemetry))
                    intervals.append((t0, perf_counter()))
                    if tracer is not None:
                        tracer.exit()
                        telemetries.append(telemetry)
        finally:
            if restore is not None:
                restore()

        n = self.config.n_replications
        eua, edf = results[0].schedulers["EUA*"].metrics, results[0].schedulers["EDF"].metrics
        quality = {
            "norm_utility": eua["accrued_utility"].mean / edf["accrued_utility"].mean,
            "norm_energy": eua["energy"].mean / edf["energy"].mean,
            "utility_ratio": eua["accrued_utility"].mean / eua["max_possible_utility"].mean,
        }
        first = _campaign_signature(results[0])
        checks = [
            Check("campaigns-identical", all(_campaign_signature(r) == first for r in results[1:]),
                  "a repeated campaign produced different aggregates"),
            Check("replications-complete", all(r.n_completed == n for r in results),
                  f"expected {n} replications per campaign"),
            *_pin_check(self.name, self.seed, quality),
        ]
        outcome = Outcome(
            throughput=n * len(intervals) / sum(host.nominal(a, b) for a, b in intervals),
            operations=len(intervals) * n,
            checks=checks,
            quality=quality,
            diagnostics={"campaigns": len(intervals), "replications_per_campaign": n,
                         "campaign_s": [b - a for a, b in intervals],
                         "host_factor": [host.factor(a, b) for a, b in intervals]},
        )
        if tracer is not None:
            self._reduce_trace(outcome, tracer, telemetries, dump_dir)
        return outcome

    def _reduce_trace(self, outcome: Outcome, tracer, telemetries, dump_dir: Path) -> None:
        """Main-process phases come from :class:`repro.obs.Telemetry`,
        the simulation inside the pool from the workers' dumps."""
        main = tracing.LayerTracer("main")
        busy = 0.0
        pickled = 0.0
        lanes = set()
        for telemetry in telemetries:
            for span in telemetry.tracer.spans:
                agg = main.totals.setdefault(span.name, [0, 0.0, 0.0])
                agg[0] += 1
                agg[1] += span.duration
                agg[2] += span.self_time
            busy += sum(iv.end - iv.start for iv in telemetry.intervals)
            lanes.update(iv.worker for iv in telemetry.intervals)
            pickled += telemetry.counter_value("pool.pickled_bytes")
        campaign_wall = tracer.total("bench.campaign")
        main_coverage = main.total("campaign") / campaign_wall if campaign_wall else 0.0

        workers = tracing.LayerTracer("workers")
        dumps = tracing.read_worker_dumps(dump_dir)
        for snap in dumps:
            workers.absorb(snap)
        top_level = sum(t[1] for name, t in workers.totals.items()
                        if name in ("sim.build", "sim.simulate"))
        worker_coverage = top_level / busy if busy else 0.0

        layers = _empty_layers()
        layers.update(tracing.core_metrics(workers))
        for layer, share in tracing.layer_shares(workers, busy).items():
            layers[f"share.{layer}"] = share
        layers["trace.coverage"] = min(main_coverage, worker_coverage)
        layers["sim.engine_decisions"] = workers.calls("engine.decide")
        layers["pool.pickled_bytes"] = pickled
        layers["pool.worker_utilisation"] = busy / (self.WORKERS * campaign_wall)
        outcome.layers = layers
        # A worker whose dump never arrived is reported, never estimated.
        dumped = {s["process"].replace("worker-", "pid-") for s in dumps}
        outcome.diagnostics.update({
            "worker_dumps": len(dumps),
            "missing_worker_dumps": len(lanes - dumped),
            "pool.worker_busy_s": busy,
            "sim.materialize_s": workers.total("sim.materialize"),
            **{f"{name}_s": main.total(name) for name in (
                "campaign.plan", "campaign.simulate", "campaign.fold",
                "pool.serialize", "pool.submit", "pool.fold")},
        })
        outcome.processes = [
            _process_entry("main", main, campaign_wall, main_coverage),
            _process_entry("workers", workers, busy, worker_coverage),
        ]
        outcome.raw_spans = [("main", tracer.raw)] + [(s["process"], s["raw"]) for s in dumps]


def _campaign_signature(result) -> Tuple:
    return tuple(
        (name, tuple(sorted((k, v.mean, v.std) for k, v in stats.metrics.items())))
        for name, stats in sorted(result.schedulers.items())
    )


class _TraceSet(Workload):
    """A fixed set of materialised traces, simulated round after round.

    The traces are built (and ``offlineComputing`` warmed) in set-up.
    The run simulates them in turn under every scheduler, on one probed
    CPU, until the time is up and each has run at least once; every
    repeat of a trace must reproduce its first run exactly.  A pass (one
    run of every trace) is the unit of work: its time is the sum over
    traces of each one's mean run time at nominal host speed (every run
    scaled by the probe over it), and ``throughput`` is the simulated
    jobs of a pass (released, summed over the scheduler arms) over that
    time.  Each trace's horizon is stretched from ``HORIZON`` until it
    holds about ``JOBS_PER_TRACE`` jobs, so a pass does the same amount
    of work at every seed (job counts at a fixed horizon spread 5%
    across seeds, which would read as a 5% spread in throughput).
    """

    INSTANCES: int
    HORIZON: float
    JOBS_PER_TRACE: int

    def _specs(self) -> List:
        raise NotImplementedError

    def _platform(self):
        raise NotImplementedError

    def _simulate(self, trace) -> Dict[str, object]:
        raise NotImplementedError

    def setup(self) -> None:
        from repro.core import offline_computing

        self.platform = self._platform()
        self.traces = []
        for spec in self._specs():
            stretch = self.JOBS_PER_TRACE / len(spec.build()[1].jobs)
            self.traces.append(replace(spec, horizon=spec.horizon * stretch).build()[1])
        for trace in self.traces:
            offline_computing(trace.taskset, self.platform.scale, self.platform.energy_model)

    def run(self, seconds: float, tracer: Optional[tracing.LayerTracer] = None) -> Outcome:
        cpu = speed.usable_cpus()[0]
        intervals: List[List[Tuple[float, float]]] = [[] for _ in self.traces]
        first: List[Dict[str, object]] = []
        signatures: List[List[Tuple]] = [[] for _ in self.traces]
        with _pinned(cpu), speed.Host([cpu]) as host:
            restore = tracing.install(tracer) if tracer is not None else None
            try:
                start = perf_counter()
                i = 0
                while perf_counter() - start < seconds or not intervals[-1]:
                    if tracer is not None:
                        tracer.request = i
                        tracer.enter("bench.trace")
                    t0 = perf_counter()
                    results = self._simulate(self.traces[i])
                    intervals[i].append((t0, perf_counter()))
                    if tracer is not None:
                        tracer.exit()
                    signatures[i].append(tuple(
                        (name, r.metrics.accrued_utility, r.energy)
                        for name, r in results.items()
                    ))
                    if len(first) == i:
                        first.append(results)
                    i = (i + 1) % len(self.traces)
            finally:
                if restore is not None:
                    restore()

        eua_u = sum(r["EUA*"].metrics.accrued_utility for r in first)
        quality = {
            "norm_utility": eua_u / sum(r["EDF"].metrics.accrued_utility for r in first),
            "norm_energy": (sum(r["EUA*"].energy for r in first)
                            / sum(r["EDF"].energy for r in first)),
            "utility_ratio": eua_u / sum(r["EUA*"].metrics.max_possible_utility for r in first),
        }
        checks = [
            Check("repeats-identical",
                  all(s == runs[0] for runs in signatures for s in runs[1:]),
                  "a repeated simulation produced different results"),
            *(self._check(first) if tracer is None else ()),
            *_pin_check(self.name, self.seed, quality),
        ]
        pass_s = sum(statistics.fmean(host.nominal(a, b) for a, b in times)
                     for times in intervals)
        jobs = sum(r.metrics.released for results in first for r in results.values())
        outcome = Outcome(
            throughput=jobs / pass_s,
            operations=sum(map(len, intervals)) * len(first[0]),
            checks=checks,
            quality=quality,
            diagnostics={"simulations": [len(times) for times in intervals],
                         "trace_s": [[b - a for a, b in times] for times in intervals],
                         "host_factor": [[host.factor(a, b) for a, b in times]
                                         for times in intervals]},
        )
        if tracer is not None:
            self._reduce_trace(outcome, tracer, first)
        return outcome

    def _check(self, first: List[Dict[str, object]]) -> List[Check]:
        """Invariant checks on the first pass (untraced runs only)."""
        return []

    def _reduce_trace(self, outcome: Outcome, tracer, first) -> None:
        wall = tracer.total("bench.trace")
        coverage = 1.0 - tracer.self_time("bench.trace") / wall if wall else 0.0
        layers = _empty_layers()
        layers.update(tracing.core_metrics(tracer))
        for layer, share in tracing.layer_shares(tracer, wall).items():
            layers[f"share.{layer}"] = share
        layers["trace.coverage"] = coverage
        layers["sim.engine_decisions"] = tracer.calls("engine.decide")
        outcome.layers = layers
        outcome.diagnostics.update({
            f"{name}_s": tracer.total(name) for name in tracer.totals
            if name.startswith(("sched.", "mp.", "engine."))
        })
        outcome.processes = [_process_entry("main", tracer, wall, coverage)]
        outcome.raw_spans = [("main", tracer.raw)]


class BurstOverload(_TraceSet):
    """UAM bursts at 1.6x load through EUA*, EDF, LA-EDF and LA-EDF-NA."""

    name = "burst-overload"
    why = ("UAM bursts at overload grow the ready set to ~100 jobs, so sigma "
           "construction, feasibility probes and decideFreq dominate; no pool, no service")
    INSTANCES = 5
    HORIZON = 1.5
    JOBS_PER_TRACE = 960
    SCHEDULERS = ("EUA*", "EDF", "LA-EDF", "LA-EDF-NA")
    #: Horizon of the invariant-checked EUA* arm: long enough for the
    #: bursts to pile up, short enough that the checker (which rebuilds
    #: σ at every decision) takes a couple of seconds.
    CHECK_HORIZON = 0.8

    def _specs(self):
        from repro.experiments import WorkloadSpec

        return [
            WorkloadSpec(load=1.6, seed=self.seed * 1000 + i, horizon=self.HORIZON,
                         arrival_mode="burst", burst_override=8)
            for i in range(self.INSTANCES)
        ]

    def _platform(self):
        from repro.experiments.parallel import PlatformSpec

        return PlatformSpec().build()

    def _simulate(self, trace):
        from repro.sched import make_scheduler
        from repro.sim import compare

        return compare([make_scheduler(n) for n in self.SCHEDULERS], trace, self.platform)

    def _check(self, first):
        from repro.check import InvariantChecker
        from repro.sched import make_scheduler
        from repro.sim import simulate

        spec = replace(self._specs()[0], horizon=min(self.CHECK_HORIZON, self.HORIZON))
        checker = InvariantChecker(mode="collect")
        simulate(spec.build()[1], make_scheduler("EUA*"), self.platform, checker=checker)
        detail = "; ".join(str(v) for v in checker.violations[:3])
        return [Check("invariants-eua", checker.ok, detail)]


class MpGlobal(_TraceSet):
    """Global EUA* and the EDF normaliser on four cores."""

    name = "mp-global"
    why = ("the global multicore engine: top-m dispatch and per-core residual views "
           "feeding decideFreq, the second copy of the event loop")
    INSTANCES = 6
    HORIZON = 10.0
    JOBS_PER_TRACE = 860
    CORES = 4

    def _specs(self):
        from repro.experiments import WorkloadSpec

        return [
            WorkloadSpec(load=0.8, seed=self.seed * 1000 + i, horizon=self.HORIZON,
                         cores=self.CORES)
            for i in range(self.INSTANCES)
        ]

    def _platform(self):
        from repro.experiments.parallel import PlatformSpec

        return PlatformSpec(cores=self.CORES, mp_mode="global").build_mp()

    def _simulate(self, trace):
        from repro.mp import simulate_global

        return {name: simulate_global(trace, name, self.platform) for name in ("EUA*", "EDF")}

    def _check(self, first):
        from repro.check import check_mp_result
        from repro.check.invariants import InvariantViolation

        failures = []
        for results in first:
            for result in results.values():
                try:
                    check_mp_result(result)
                except InvariantViolation as exc:
                    failures.append(str(exc))
        return [Check("mp-invariants", not failures, "; ".join(failures[:3]))]

    def _reduce_trace(self, outcome, tracer, first):
        super()._reduce_trace(outcome, tracer, first)
        outcome.layers["mp.migrations"] = sum(r["EUA*"].migrations for r in first)


# ----------------------------------------------------------------------
# Service workloads
# ----------------------------------------------------------------------
#: Offered jobs/s of the service workloads' open loop.
BASE_RATE = 635.0
#: Clock rate of svc-ingest's closed-loop service: emulated time all
#: but stands still (a second takes eleven wall days).
FROZEN_RATE = 1e-6
#: Demand (Mcycles) of every closed-loop job: a few cycles, so each
#: admitted job completes on the executor's next turn.
TINY_DEMAND = 1e-9
#: Closed-loop requests sent to the service between two visits to the
#: reference service: the pair alternates several times a second, so
#: both see the same host, and a switch costs little.
REFERENCE_BLOCK = 400
#: CPU seconds one request costs the reference service (``refserve.py``)
#: at nominal host speed, matched to :data:`speed.NOMINAL_S`: its CPU
#: time per request over the probe's factor, averaged over thirty runs
#: on a 2-vCPU Xeon VM under CPython 3.11.
REFERENCE_REQUEST_S = 49e-6


def step_checks(replay, stats: dict, reader=None, events: Optional[int] = None,
                reference=None) -> List[Check]:
    """Correctness of one service step: only 200/429 verdicts, every
    submission counted once with exactly one verdict, with a tail
    reader every logged event streamed exactly once, and with a
    ``reference`` replay every request answered by the reference too."""
    checks = [
        Check("statuses-200-429", set(replay.statuses) <= {200, 429},
              f"statuses {replay.statuses}"),
        Check("stats-balance",
              stats["submitted"] == (stats["admitted"] + stats["deferred"]
                                     + stats["shed_uam"] + stats["rejected"]),
              f"/stats {stats}"),
        Check("all-submissions-counted", stats["submitted"] == replay.sent,
              f"server saw {stats['submitted']}, client sent {replay.sent}"),
    ]
    if reader is not None:
        checks += [
            Check("stream-statuses-200", set(reader.statuses) == {200},
                  f"statuses {reader.statuses}"),
            Check("stream-complete", reader.cursor == events and reader.errors == 0,
                  f"read {reader.cursor} of {events} events"),
        ]
    if reference is not None:
        checks.append(Check("reference-answered", reference.statuses == {200: replay.sent},
                            f"statuses {reference.statuses}"))
    return checks


@dataclass
class Step:
    """One replay against one service process."""

    replay: object
    stats: dict
    checks: List[Check]
    reader: Optional[object] = None
    #: CPU seconds the service process used during the replay, and the
    #: reference service during the same requests (frozen steps only).
    server_cpu_s: float = 0.0
    reference_cpu_s: float = 0.0


class _Service(Workload):
    """Job submissions against ``repro serve``.

    The task set is the one ``repro serve --load 0.8 --seed N`` hosts.
    In the open loop the service clock is compressed so that the task
    set's Poisson arrivals come at :data:`BASE_RATE` jobs per wall
    second at every seed.  Every step gets a fresh service process; a
    traced run uses ``traced_serve.py`` for each and folds their span
    aggregates.
    """

    LOAD = 0.8

    def setup(self) -> None:
        import numpy as np
        from repro.experiments import synthesize_taskset
        from repro.svc import build_schedule

        self.taskset = synthesize_taskset(self.LOAD, np.random.default_rng(self.seed))
        self.utility_of = {task.name: task.tuf.max_utility for task in self.taskset}
        horizon = 10.0
        arrivals = build_schedule(self.taskset, "poisson", horizon, self.seed)
        self.clock_rate = BASE_RATE * horizon / len(arrivals)
        self._schedules = 0
        self.server = self._start()

    def _start(self, dump: Optional[Path] = None, frozen_on: Optional[int] = None):
        """A service process; ``frozen_on`` is the CPU a frozen-clock
        service runs on alone."""
        import svcload

        if frozen_on is None:
            return svcload.repro_server(self.root, self.seed, self.clock_rate, self.LOAD, "shed",
                                        dump)
        with _pinned(frozen_on):
            return svcload.repro_server(self.root, self.seed, FROZEN_RATE, self.LOAD,
                                        "admit-and-flag", dump)

    def _take_server(self, dump: Optional[Path], frozen_on: Optional[int]):
        """The server started in set-up serves the first untraced open
        loop; it stays on set-up's one CPU (it inherited the pinning)."""
        if self.server is not None and dump is None and frozen_on is None:
            server, self.server = self.server, None
            return server
        if self.server is not None:
            self.server.stop()
            self.server = None
        return self._start(dump, frozen_on)

    def _arrivals(self, emulated_s: float) -> List[Tuple[float, str]]:
        """A fresh stretch of the task set's Poisson arrivals."""
        from repro.svc import build_schedule

        self._schedules += 1
        return build_schedule(self.taskset, "poisson", emulated_s,
                              self.seed * 1000 + self._schedules)

    def _open_loop(self, seconds: float) -> List[Tuple[float, str]]:
        """``seconds`` of arrivals at :data:`BASE_RATE`, in wall time."""
        return [(t / self.clock_rate, name)
                for t, name in self._arrivals(seconds * self.clock_rate)]

    def _step(self, schedule: List[Tuple[float, str]], tracer=None, tail: bool = False,
              server_trace: Optional[tracing.LayerTracer] = None,
              frozen_on: Optional[int] = None) -> Step:
        """Replay ``schedule`` on one connection (plus the stream reader
        with ``tail``); with ``server_trace`` the service is traced and
        its span aggregates are folded into it.  With ``frozen_on`` the
        replay goes to a :data:`FROZEN_RATE` service on that CPU, with
        :data:`TINY_DEMAND` jobs, alternating with the reference service
        on the same CPU."""
        import svcload

        dump = self.work_dir / "server.json" if server_trace is not None else None
        server = self._take_server(dump, frozen_on)
        reader = reference = ref_rep = None
        try:
            conn = server.connect()
            if tail:
                reader = svcload.TailReader(server.connect())
                reader.start()
            if frozen_on is not None:
                with _pinned(frozen_on):
                    reference = svcload.reference_server()
                ref_conn = reference.connect()
                ref_cpu0 = reference.cpu_seconds()
            cpu0 = server.cpu_seconds()
            try:
                if reference is None:
                    rep = svcload.replay(conn, schedule, self.utility_of, tracer)
                else:
                    rep, ref_rep = svcload.alternate(conn, ref_conn, schedule, self.utility_of,
                                                     REFERENCE_BLOCK, tracer, TINY_DEMAND)
            finally:
                if reader is not None:
                    reader.stop()
            server_cpu_s = server.cpu_seconds() - cpu0
            reference_cpu_s = 0.0
            if reference is not None:
                reference_cpu_s = reference.cpu_seconds() - ref_cpu0
                ref_conn.close()
            stats = server.drain()
            events = None
            if reader is not None:
                # Catch up after the drain: the stream must now hold
                # exactly the events the log holds.
                reader.read_once()
                events = server.control.get_json("/stats")["events"]
                reader.conn.close()
            conn.close()
        finally:
            server.stop()
            if reference is not None:
                reference.stop()
        if dump is not None:
            snap = json.loads(dump.read_text())
            server_trace.absorb(snap)
            server_trace.raw.extend(snap["raw"][:tracing.RAW_CAP - len(server_trace.raw)])
        return Step(rep, stats, step_checks(rep, stats, reader, events, ref_rep), reader,
                    server_cpu_s, reference_cpu_s)

    def _outcome(self, steps: List[Step], throughput: float) -> Outcome:
        """The diagnostics describe the first (open-loop) step."""
        base = steps[0]
        lateness = base.replay.lateness()
        tail = lateness[-max(1, len(lateness) // 20):]
        latencies = [lat for _due, lat in base.replay.latencies()]
        diagnostics = {
            "verdict_p50_ms": _quantile(latencies, 0.50) * 1e3,
            "verdict_p90_ms": _quantile(latencies, 0.90) * 1e3,
            "verdict_p99_ms": _quantile(latencies, 0.99) * 1e3,
            "verdict_samples": len(latencies),
            "loadgen.late_p99_ms": _quantile(lateness, 0.99) * 1e3,
            "loadgen.late_max_ms": max(lateness) * 1e3,
            "loadgen.late_at_end_ms": max(tail) * 1e3,
            "utility_ratio": base.stats["utility_accrued"] / base.replay.offered_utility,
            "accept_rate": (base.stats["admitted"] + base.stats["deferred"]) / base.replay.sent,
            "deadline_hit_rate": base.stats["deadline_hits"] / max(1, base.stats["admitted"]),
            "clock_rate": self.clock_rate,
            "drift": base.stats.get("drift", {}),
        }
        return Outcome(
            throughput=throughput,
            operations=sum(step.replay.sent for step in steps),
            errors=sum(step.replay.transport_errors for step in steps),
            checks=[c for step in steps for c in step.checks],
            diagnostics=diagnostics,
        )

    def _reduce_trace(self, outcome: Outcome, steps: List[Step], server, tracer) -> None:
        """Per-layer metrics from the service processes' spans; their
        executor coroutine's lifetime is the traced wall time."""
        wall = server.total("svc.executor")
        coverage = 1.0 - server.self_time("svc.executor") / wall if wall else 0.0
        layers = _empty_layers()
        layers.update(tracing.core_metrics(server))
        for layer, share in tracing.layer_shares(server, wall).items():
            layers[f"share.{layer}"] = share
        reads = [r for step in steps if step.reader is not None for r in step.reader.reads]
        layers.update({
            "trace.coverage": coverage,
            "svc.server_cpu_util": server.counters.get("svc.executor_cpu_s", 0.0) / wall,
            "svc.verdict_samples": sum(len(step.replay.latencies()) for step in steps),
            "obs.stream_bytes": sum(r.size for r in reads),
            "loadgen.sent": sum(step.replay.sent for step in steps),
        })
        for name, key in (("runtime.rejected", "rejected"), ("runtime.evicted", "evicted"),
                          ("runtime.shed_uam", "shed_uam"), ("obs.events_logged", "events")):
            layers[name] = sum(step.stats[key] for step in steps)
        outcome.layers = layers
        outcome.diagnostics.update({
            f"{name}_s": server.total(name) for name in server.totals
            if name.startswith(("svc.", "runtime.", "obs."))
        })
        outcome.processes = [
            _process_entry("server", server, wall, coverage),
            _process_entry("loadgen", tracer, tracer.total("loadgen.request"), 1.0),
        ]
        outcome.raw_spans = [("server", server.raw), ("loadgen", tracer.raw)]

    def close(self) -> None:
        if getattr(self, "server", None) is not None:
            self.server.stop()
            self.server = None



class SvcIngest(_Service):
    """An open loop at 635 jobs/s, then a closed loop on a frozen clock.

    The closed loop measures the service's ingest capacity: what one
    submission costs the service end to end (HTTP, JSON, the UAM
    monitor, admission, an EUA* decision, the completion and their
    events).  Its service runs with the clock all but stopped
    (:data:`FROZEN_RATE`) and the ``admit-and-flag`` UAM policy, and
    every job demands a few cycles (:data:`TINY_DEMAND`): each
    submission is admitted, flagged once its task's UAM window is full,
    and completed on the executor's next turn, so what it does follows
    from the inputs alone (the service logs the same events on every
    run).  On a running clock it follows the host's speed: a slower host
    submits fewer jobs per emulated second, the UAM monitor sheds fewer,
    and the set-median capacity moved 17% between sets of ten runs.

    One connection sends the next submission as soon as it has a
    verdict, :data:`REFERENCE_BLOCK` at a time, each block then sent
    again to the reference service (``refserve.py``).  Both services run
    alone on the last CPU, the client on the first (a service sharing
    its CPU with the client follows the client's cache traffic too).
    ``throughput`` is the verdicts over the service's CPU time (wall
    time would count the idle gaps of the request ping-pong, whose
    length follows the neighbours) at nominal host speed: the rate a
    saturated service sustains.  The service's work mixes interpreter
    work, which the probe of :mod:`speed` follows, with asyncio, JSON
    and socket work, which the reference service follows, so its host
    factor is the geometric mean of the two.  Either alone misreads the
    host, in opposite directions: over thirty runs the scaled rate's
    standard deviation was 4.5% (probe) and 6.0% (reference), their
    errors correlated -0.49, 2.7% with their mean, 11.5% raw.  The loop
    sends a fixed number of submissions, so it does the same work at
    any speed.

    The open loop is the service as deployed: its verdict latency,
    accept, deadline-hit and utility rates go to ``results.json``, not
    to a gated metric.  At a light load both vCPUs halt between
    requests, their wake-up cost depends on the neighbours, and the
    verdict p50's set median moved by 25% between sets of ten runs.
    """

    name = "svc-ingest"
    why = ("the ingest path with no stream consumer: per-submission cost at saturation "
           "in a closed loop, verdict latency at a light open-loop rate")
    #: Share of the run the open loop gets; the gated closed loop has
    #: the rest.
    OPEN_SHARE = 0.2
    #: Closed-loop submissions per second of its share: about what a
    #: host running at half speed answers, reference included, so the
    #: loop ends within its share there.
    CLOSED_RATE = 1300.0

    def run(self, seconds: float, tracer: Optional[tracing.LayerTracer] = None) -> Outcome:
        count = round(self.CLOSED_RATE * seconds * (1.0 - self.OPEN_SHARE))
        names: List[str] = []
        while len(names) < count:
            names += [name for _t, name in self._arrivals(count / BASE_RATE * self.clock_rate)]
        server_trace = tracing.LayerTracer("server") if tracer is not None else None
        open_loop = self._step(self._open_loop(seconds * self.OPEN_SHARE), tracer,
                               server_trace=server_trace)
        cpus = speed.usable_cpus()
        with _pinned(cpus[0]), speed.Host(cpus[-1:]) as host:
            closed = self._step([(0.0, name) for name in names[:count]], tracer,
                                server_trace=server_trace, frozen_on=cpus[-1])
        rep = closed.replay
        probe = host.factor(rep.start, rep.start + rep.wall_s)
        reference = closed.reference_cpu_s / rep.sent / REFERENCE_REQUEST_S
        factor = math.sqrt(probe * reference)
        outcome = self._outcome([open_loop, closed], rep.sent * factor / closed.server_cpu_s)
        outcome.diagnostics["closed_loop"] = {
            "sent": rep.sent, "wall_s": rep.wall_s, "server_cpu_s": closed.server_cpu_s,
            "reference_cpu_s": closed.reference_cpu_s, "probe_factor": probe,
            "reference_factor": reference,
            **{key: closed.stats[key] for key in ("admitted", "completed", "events")},
        }
        if tracer is not None:
            self._reduce_trace(outcome, [open_loop, closed], server_trace, tracer)
        return outcome


class SvcStream(_Service):
    """The 635 jobs/s open loop plus a second connection tailing
    ``GET /events?since=cursor`` every 50 ms.

    The reads keep the service busy encoding, so the probes can scale
    them: ``throughput`` is decision events delivered per second of
    waiting on ``/events``, the median over reads at nominal host speed.
    The raw read time and the submissions' verdict latency beside the
    reads are diagnostics.
    """

    name = "svc-stream"
    why = ("event-stream reads beside writes on the same event log: a change to the "
           "stream path shows here and nowhere else")

    def run(self, seconds: float, tracer: Optional[tracing.LayerTracer] = None) -> Outcome:
        server_trace = tracing.LayerTracer("server") if tracer is not None else None
        with speed.Host() as host:
            step = self._step(self._open_loop(seconds), tracer, tail=True,
                              server_trace=server_trace)
        reads = [r for r in step.reader.reads if r.events]
        outcome = self._outcome([step], statistics.median(
            r.events * host.factor(r.start, r.start + r.seconds) / r.seconds for r in reads))
        outcome.operations += len(step.reader.reads)
        outcome.diagnostics.update({
            "stream_read_p50_ms": statistics.median(r.seconds for r in reads) * 1e3,
            "stream_reads": len(step.reader.reads),
            "stream_events": sum(r.events for r in reads),
        })
        if tracer is not None:
            self._reduce_trace(outcome, [step], server_trace, tracer)
        return outcome


WORKLOADS: Dict[str, Callable[..., Workload]] = {
    cls.name: cls for cls in (McCampaign, BurstOverload, MpGlobal, SvcIngest, SvcStream)
}


# ----------------------------------------------------------------------
# One measured run, as the worker process reports it
# ----------------------------------------------------------------------
def measure(workload: Workload, seconds: float, trace: bool) -> dict:
    """Run ``workload`` and reduce it to the benchmark's metrics.

    Untraced: the :data:`END_TO_END` values the workload measures
    (``setup_s`` and ``peak_rss_mb`` are added around it).  Traced: one
    untraced run and one traced run of half the length each; the
    :data:`PER_LAYER` values, with ``trace.overhead`` the untraced
    throughput over the traced one, minus one.
    """
    if not trace:
        outcome = workload.run(seconds)
        return _report(outcome, {"throughput": outcome.throughput})
    untraced = workload.run(seconds / 2)
    outcome = workload.run(seconds / 2, tracing.LayerTracer("main"))
    metrics = dict(outcome.layers)
    metrics["trace.overhead"] = untraced.throughput / outcome.throughput - 1.0
    outcome.checks = untraced.checks + outcome.checks
    outcome.operations += untraced.operations
    outcome.errors += untraced.errors
    report = _report(outcome, metrics)
    report["trace"] = {
        "processes": outcome.processes,
        "overhead": {
            "untraced_throughput": untraced.throughput,
            "traced_throughput": outcome.throughput,
        },
    }
    report["raw_spans"] = outcome.raw_spans
    return report


def _report(outcome: Outcome, metrics: Dict[str, float]) -> dict:
    return {
        "metrics": metrics,
        "attempted": outcome.operations + len(outcome.checks),
        "failed": outcome.failed,
        "checks": [c.__dict__ for c in outcome.checks],
        "quality": outcome.quality,
        "diagnostics": outcome.diagnostics,
    }
