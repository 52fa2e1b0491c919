"""Seed-parallel Monte-Carlo assurance campaigns.

One campaign answers the question the paper's requirement model poses
but a single simulation cannot: *does the scheduler actually deliver*
``Pr[accrued utility ≥ ν_i·U_max] ≥ ρ_i`` *for every task* — over the
distribution of workloads, not one lucky trace?  It runs ``n``
independently-materialised replications (seed, seed+1, …), each a fresh
Table-1-style synthesis + arrival materialisation, streams the
per-replication scalar summaries into Welford accumulators, pools the
per-task binomial outcomes, and reports two-sided Wilson intervals with
a pass / fail / inconclusive verdict per scheduler.

Determinism contract (pinned by ``tests/stats/test_campaign.py``):

* every replication is a pure function of its picklable specs, so the
  campaign aggregate is **bit-identical** at any ``workers`` setting —
  folding always happens in the main process, in seed order;
* a :class:`~repro.stats.cache.RunCache` hit replaces the simulation
  with a JSON round-trip that preserves floats exactly, so cache-warm
  re-runs reproduce cache-cold aggregates bit-for-bit while simulating
  nothing.

The optional :class:`~repro.stats.estimators.EarlyStopRule` stops a
campaign at a batch boundary once every (scheduler, task) requirement
is decided at a stricter-than-reporting confidence.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..analysis.assurance import wilson_interval
from ..analysis.stats import SummaryStat
from ..experiments.config import TABLE1, AppSetting
from ..experiments.parallel import (
    CompareUnit,
    PlatformSpec,
    SchedulerSpec,
    WorkloadSpec,
    run_chunked,
    run_sweep,
    run_units,
)
from ..obs import Telemetry
from .cache import RunCache, run_cache_key
from .estimators import EarlyStopRule, MetricAccumulator, assurance_verdict

__all__ = [
    "CampaignConfig",
    "ReplicationSpec",
    "ReplicationSummary",
    "TaskAssurance",
    "SchedulerStats",
    "CampaignResult",
    "run_campaign",
    "run_campaign_reference",
]


# ----------------------------------------------------------------------
# Configuration
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CampaignConfig:
    """Everything that defines a campaign (and its cache identity).

    The workload fields mirror
    :class:`~repro.experiments.parallel.WorkloadSpec`; replication
    ``k`` uses seed ``base_seed + k`` so campaigns with overlapping
    seed ranges share cache entries.
    """

    load: float = 0.8
    horizon: float = 2.0
    schedulers: Tuple[str, ...] = ("EUA*",)
    n_replications: int = 200
    base_seed: int = 11
    confidence: float = 0.95
    tuf_shape: str = "step"
    nu: float = 1.0
    rho: float = 0.96
    arrival_mode: str = "periodic"
    burst_override: Optional[int] = None
    apps: Tuple[AppSetting, ...] = TABLE1
    energy: str = "E1"
    f_max: float = 1000.0
    early_stop: Optional[EarlyStopRule] = None
    #: Multicore dimension: ``cores > 1`` runs every replication through
    #: :func:`repro.mp.simulate_mp` in ``mp_mode``, with the workload
    #: sized to ``load · cores`` (``load`` stays the per-core knob).
    cores: int = 1
    mp_mode: str = "partitioned"
    partition_strategy: str = "wfd"
    active_power: float = 0.0
    #: Arrival-shape dimension: extra ``(key, value)`` factory params
    #: for ``arrival_mode`` (see ``repro.arrivals``).  Part of the
    #: cache identity via :meth:`workload_spec`.
    arrival_params: Tuple[Tuple[str, object], ...] = ()

    def __post_init__(self) -> None:
        if self.n_replications < 1:
            raise ValueError("n_replications must be >= 1")
        if not self.schedulers:
            raise ValueError("at least one scheduler is required")
        if not (0.0 < self.confidence < 1.0):
            raise ValueError("confidence must lie in (0, 1)")
        if self.cores < 1:
            raise ValueError("cores must be >= 1")
        if self.mp_mode not in ("partitioned", "global"):
            raise ValueError(f"unknown mp mode {self.mp_mode!r}")

    # -- picklable spec builders ---------------------------------------
    def scheduler_specs(self) -> Tuple[SchedulerSpec, ...]:
        return tuple(SchedulerSpec.registry(name) for name in self.schedulers)

    def platform_spec(self) -> PlatformSpec:
        return PlatformSpec(
            energy=self.energy,
            f_max=self.f_max,
            cores=self.cores,
            mp_mode=self.mp_mode,
            partition_strategy=self.partition_strategy,
            active_power=self.active_power,
        )

    def workload_spec(self, seed: int) -> WorkloadSpec:
        return WorkloadSpec(
            load=self.load,
            seed=seed,
            horizon=self.horizon,
            tuf_shape=self.tuf_shape,
            nu=self.nu,
            rho=self.rho,
            arrival_mode=self.arrival_mode,
            burst_override=self.burst_override,
            apps=self.apps,
            f_max=self.f_max,
            cores=self.cores,
            arrival_params=self.arrival_params,
        )

    @property
    def seeds(self) -> Tuple[int, ...]:
        return tuple(range(self.base_seed, self.base_seed + self.n_replications))


# ----------------------------------------------------------------------
# One replication
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ReplicationSpec:
    """Picklable work item: one workload through every scheduler."""

    workload: WorkloadSpec
    platform: PlatformSpec
    schedulers: Tuple[SchedulerSpec, ...]


@dataclass
class ReplicationSummary:
    """The streamed record of one replication.

    Scalar metrics come from :meth:`repro.sim.Metrics.summary`;
    ``assurance`` pools per task as ``[satisfied, decided]`` where
    *decided* excludes jobs still pending at the horizon (censored,
    not failed).  The record is JSON-round-trip exact, which is what
    lets the cache substitute for the simulation.
    """

    seed: int
    metrics: Dict[str, Dict[str, float]]
    assurance: Dict[str, Dict[str, List[int]]]
    requirements: Dict[str, List[float]]

    def to_dict(self) -> Dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: Dict) -> "ReplicationSummary":
        return cls(
            seed=int(payload["seed"]),
            metrics={
                sched: {k: float(v) for k, v in summary.items()}
                for sched, summary in payload["metrics"].items()
            },
            assurance={
                sched: {task: [int(c[0]), int(c[1])] for task, c in counts.items()}
                for sched, counts in payload["assurance"].items()
            },
            requirements={
                task: [float(v[0]), float(v[1])]
                for task, v in payload["requirements"].items()
            },
        )


def _run_replication(spec: ReplicationSpec) -> ReplicationSummary:
    """Simulate one replication (top-level so it pickles under spawn).

    The arms run as one :class:`~repro.experiments.parallel.CompareUnit`;
    this only summarises them.  At ``spec.platform.cores > 1`` each
    summary carries the extra ``migrations`` scalar (0 in partitioned
    mode, so the field is still comparable across modes).
    """
    unit = CompareUnit(
        key=(spec.workload.seed,),
        schedulers=spec.schedulers,
        workload=spec.workload,
        platform=spec.platform,
    )
    outcome = run_units([unit])[0]
    metrics: Dict[str, Dict[str, float]] = {}
    assurance: Dict[str, Dict[str, List[int]]] = {}
    for name, result in outcome.results.items():
        m = result.metrics
        metrics[name] = m.summary()
        if spec.platform.cores > 1:
            metrics[name]["migrations"] = float(result.migrations)
        assurance[name] = {
            task: [tm.met_requirement, tm.released - tm.unfinished]
            for task, tm in m.per_task.items()
        }
    return ReplicationSummary(
        seed=spec.workload.seed,
        metrics=metrics,
        assurance=assurance,
        requirements={t.name: [t.nu, t.rho] for t in outcome.taskset},
    )


def _run_replication_batch(
    config: "CampaignConfig", seeds: Sequence[int]
) -> Tuple[List[ReplicationSummary], Dict[str, Dict[str, List[object]]]]:
    """One chunked pool task: simulate ``seeds`` against the shared
    campaign config, folding the pooled assurance counts worker-side.

    The config is the :func:`~repro.experiments.parallel.run_chunked`
    shared payload — deserialised once per worker — so the only
    per-chunk traffic is a list of ints out and the summaries back.
    Pooled counts are exact integers (order-independent under
    addition), so folding them here is safe; the Welford metric fold
    stays in the main process, in seed order, to keep aggregates
    bit-identical at any chunking (see the determinism contract above).
    """
    platform = config.platform_spec()
    scheduler_specs = config.scheduler_specs()
    summaries = [
        _run_replication(
            ReplicationSpec(
                workload=config.workload_spec(seed),
                platform=platform,
                schedulers=scheduler_specs,
            )
        )
        for seed in seeds
    ]
    return summaries, _pooled_counts(summaries)


# ----------------------------------------------------------------------
# Aggregated result
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TaskAssurance:
    """Pooled empirical attainment of one task's ``{ν, ρ}``."""

    task: str
    nu: float
    rho: float
    decided: int
    satisfied: int
    attainment: float
    ci_low: float
    ci_high: float
    verdict: str


@dataclass
class SchedulerStats:
    """One scheduler's campaign aggregate."""

    name: str
    metrics: Dict[str, SummaryStat]
    assurance: List[TaskAssurance]
    #: Replication-level Bernoulli outcome for the threshold study: a
    #: replication *succeeds* when every task with at least one decided
    #: job attains its ``ρ_i`` empirically within that replication.
    #: ``replication_decided`` counts replications contributing an
    #: outcome (at least one decided job anywhere).
    replication_successes: int = 0
    replication_decided: int = 0

    @property
    def assurance_probability(self) -> float:
        """Empirical ``Pr[assurance met]`` over replications (1.0 when
        no replication decided anything — vacuous success)."""
        if self.replication_decided == 0:
            return 1.0
        return self.replication_successes / self.replication_decided

    def assurance_interval(self, confidence: float = 0.95) -> Tuple[float, float]:
        """Wilson interval for :attr:`assurance_probability`."""
        if self.replication_decided == 0:
            return (0.0, 1.0)
        return wilson_interval(
            self.replication_successes, self.replication_decided, confidence
        )

    @property
    def verdict(self) -> str:
        """``fail`` dominates ``inconclusive`` dominates ``pass``."""
        verdicts = {a.verdict for a in self.assurance}
        if "fail" in verdicts:
            return "fail"
        if "inconclusive" in verdicts or not verdicts:
            return "inconclusive"
        return "pass"


@dataclass
class CampaignResult:
    """A completed (possibly early-stopped) campaign."""

    config: CampaignConfig
    n_planned: int
    n_completed: int
    n_simulated: int
    n_cached: int
    stopped_early: bool
    schedulers: Dict[str, SchedulerStats] = field(default_factory=dict)

    @property
    def verdict(self) -> str:
        verdicts = {s.verdict for s in self.schedulers.values()}
        if "fail" in verdicts:
            return "fail"
        if "inconclusive" in verdicts or not verdicts:
            return "inconclusive"
        return "pass"

    @property
    def ok(self) -> bool:
        return self.verdict != "fail"

    def assurance_rows(self) -> List[Dict[str, object]]:
        """Flat rows (scheduler × task) for reporting."""
        out: List[Dict[str, object]] = []
        for stats in self.schedulers.values():
            for a in stats.assurance:
                out.append(
                    {
                        "scheduler": stats.name,
                        "task": a.task,
                        "nu": a.nu,
                        "rho": a.rho,
                        "decided": a.decided,
                        "attainment": a.attainment,
                        "ci_low": a.ci_low,
                        "ci_high": a.ci_high,
                        "verdict": a.verdict,
                    }
                )
        return out

    def metric_rows(self, names: Sequence[str]) -> List[Dict[str, object]]:
        out: List[Dict[str, object]] = []
        for stats in self.schedulers.values():
            row: Dict[str, object] = {"scheduler": stats.name}
            for name in names:
                stat = stats.metrics.get(name)
                row[name] = f"{stat}" if stat is not None else "-"
            out.append(row)
        return out


# ----------------------------------------------------------------------
# The driver
# ----------------------------------------------------------------------
def _pooled_counts(
    summaries: Sequence[ReplicationSummary],
) -> Dict[str, Dict[str, List[object]]]:
    """``scheduler → task → [satisfied, decided, rho]`` over summaries."""
    pooled: Dict[str, Dict[str, List[object]]] = {}
    for summary in summaries:
        for sched, counts in summary.assurance.items():
            bucket = pooled.setdefault(sched, {})
            for task, (satisfied, decided) in counts.items():
                rho = summary.requirements[task][1]
                entry = bucket.setdefault(task, [0, 0, rho])
                entry[0] += satisfied
                entry[1] += decided
    return pooled


#: Slop for the per-replication attainment comparison — matches the
#: Wilson machinery's tolerance in ``assurance_verdict``.
_RHO_SLOP = 1e-12


def _replication_success(summary: ReplicationSummary, sched: str) -> Optional[bool]:
    """One replication's Bernoulli assurance outcome for ``sched``.

    ``True`` iff every task with at least one decided job attained its
    ``ρ_i`` within this replication; ``None`` when nothing was decided
    (censored replication — contributes no outcome).
    """
    counts = summary.assurance.get(sched)
    if not counts:
        return None
    decided_any = False
    for task, (satisfied, decided) in counts.items():
        if decided == 0:
            continue
        decided_any = True
        rho = summary.requirements[task][1]
        if satisfied < rho * decided - _RHO_SLOP:
            return False
    return True if decided_any else None


def _aggregate(
    config: CampaignConfig,
    summaries: Sequence[ReplicationSummary],
    n_simulated: int,
    n_cached: int,
    stopped_early: bool,
) -> CampaignResult:
    accumulators: Dict[str, MetricAccumulator] = {
        name: MetricAccumulator() for name in config.schedulers
    }
    for summary in summaries:
        for sched, metrics in summary.metrics.items():
            accumulators[sched].fold(metrics)
    pooled = _pooled_counts(summaries)
    result = CampaignResult(
        config=config,
        n_planned=config.n_replications,
        n_completed=len(summaries),
        n_simulated=n_simulated,
        n_cached=n_cached,
        stopped_early=stopped_early,
    )
    nu_by_task = {}
    for summary in summaries:
        for task, (nu, _rho) in summary.requirements.items():
            nu_by_task.setdefault(task, nu)
    for sched in config.schedulers:
        assurance: List[TaskAssurance] = []
        for task in sorted(pooled.get(sched, {})):
            satisfied, decided, rho = pooled[sched][task]
            attainment = satisfied / decided if decided else 1.0
            if decided:
                low, high = wilson_interval(satisfied, decided, config.confidence)
            else:
                low, high = 0.0, 1.0
            assurance.append(
                TaskAssurance(
                    task=task,
                    nu=nu_by_task.get(task, config.nu),
                    rho=rho,
                    decided=decided,
                    satisfied=satisfied,
                    attainment=attainment,
                    ci_low=low,
                    ci_high=high,
                    verdict=assurance_verdict(satisfied, decided, rho, config.confidence),
                )
            )
        successes = 0
        decided_reps = 0
        for summary in summaries:
            outcome = _replication_success(summary, sched)
            if outcome is None:
                continue
            decided_reps += 1
            if outcome:
                successes += 1
        result.schedulers[sched] = SchedulerStats(
            name=sched,
            metrics=accumulators[sched].stats(config.confidence),
            assurance=assurance,
            replication_successes=successes,
            replication_decided=decided_reps,
        )
    return result


def _merge_pooled(
    into: Dict[str, Dict[str, List[object]]],
    partial: Dict[str, Dict[str, List[object]]],
) -> None:
    """Fold a worker-side partial pool into the running pool.

    Counts are exact integers, so the merge is order-independent and
    the running pool equals :func:`_pooled_counts` over all folded
    summaries bit-for-bit — which is what keeps chunked early-stop
    decisions identical to the reference's re-pool-everything pass.
    """
    for sched, counts in partial.items():
        bucket = into.setdefault(sched, {})
        for task, (satisfied, decided, rho) in counts.items():
            entry = bucket.get(task)
            if entry is None:
                bucket[task] = [satisfied, decided, rho]
            else:
                entry[0] += satisfied
                entry[1] += decided


def _span(telemetry: Optional[Telemetry], name: str):
    """``telemetry.tracer.span(name)`` or a no-op context manager."""
    return telemetry.tracer.span(name) if telemetry is not None else nullcontext()


def run_campaign(
    config: CampaignConfig,
    workers: int = 1,
    cache: Optional[RunCache] = None,
    telemetry: Optional[Telemetry] = None,
    chunk_size: Optional[int] = None,
) -> CampaignResult:
    """Run (or resume) a Monte-Carlo campaign.

    Cached replications are loaded first; the remainder runs through
    :func:`~repro.experiments.parallel.run_chunked` — each pool task
    simulates a *chunk* of seeds against the campaign config, which is
    shipped once per worker as the pool's shared payload instead of
    once per replication.  ``chunk_size`` pins the seeds-per-task
    grain; the default auto-sizes from ``workers`` and the batch
    budget (~4 chunks per worker, never crossing an early-stop batch
    boundary).  With a stopping rule the batches follow
    ``early_stop.check_every`` and the rule is also consulted *before*
    the first batch, so a warm cache can satisfy an early-stopped
    campaign with zero simulations.

    Chunking is an execution detail, not an identity: per-replication
    summaries return to the calling process and are folded in seed
    order, so the aggregate is bit-identical at any ``workers`` /
    ``chunk_size`` setting (and to :func:`run_campaign_reference`, the
    retained per-replication dispatch oracle) — only the pooled
    assurance *counts* (exact ints, order-independent) are pre-folded
    worker-side.  Cache keys never see the chunking either.

    ``telemetry`` (optional) records the campaign's phase spans
    (``campaign.plan`` / ``campaign.cache`` / ``campaign.stop_check`` /
    ``campaign.simulate`` / ``campaign.fold`` under a ``campaign``
    root), the per-chunk ``pool.chunk`` spans (serial) or worker-lane
    busy intervals (pool), and the hit/miss/replication/worker-fold
    counters a :class:`~repro.obs.PhaseReport` turns into reps/sec and
    cache hit rate.  The aggregate is bit-identical with and without
    it.
    """
    with _span(telemetry, "campaign"):
        keys: Dict[int, str] = {}
        summaries: Dict[int, ReplicationSummary] = {}
        todo: List[int] = []
        with _span(telemetry, "campaign.plan"):
            platform = config.platform_spec()
            scheduler_specs = config.scheduler_specs()
        n_cached = 0
        with _span(telemetry, "campaign.cache"):
            for seed in config.seeds:
                if cache is not None:
                    keys[seed] = run_cache_key(
                        config.workload_spec(seed), platform, scheduler_specs
                    )
                    payload = cache.get(keys[seed])
                    if payload is not None:
                        summaries[seed] = ReplicationSummary.from_dict(payload)
                        n_cached += 1
                        if telemetry is not None:
                            telemetry.count("campaign.cache_hits")
                        continue
                    if telemetry is not None:
                        telemetry.count("campaign.cache_misses")
                todo.append(seed)

        rule = config.early_stop
        batch = rule.check_every if rule is not None else max(1, len(todo))
        # Running pool for the stop checks: cached summaries up front,
        # worker-side partials folded in as chunks complete.
        pooled: Dict[str, Dict[str, List[object]]] = _pooled_counts(
            [summaries[s] for s in sorted(summaries)]
        )
        stopped_early = False
        n_simulated = 0
        index = 0
        while index < len(todo):
            if rule is not None:
                with _span(telemetry, "campaign.stop_check"):
                    counts = [
                        tuple(entry)
                        for sched in config.schedulers
                        for _, entry in sorted(pooled.get(sched, {}).items())
                    ]
                    stop = rule.should_stop(len(summaries), counts)
                if stop:
                    stopped_early = True
                    break
            seeds_batch = todo[index : index + batch]
            with _span(telemetry, "campaign.simulate"):
                for chunk_summaries, partial_pool in run_chunked(
                    _run_replication_batch,
                    seeds_batch,
                    shared=config,
                    max_workers=workers,
                    chunk_size=chunk_size,
                    telemetry=telemetry,
                ):
                    _merge_pooled(pooled, partial_pool)
                    if telemetry is not None:
                        telemetry.count("campaign.worker_folds", len(chunk_summaries))
                    for summary in chunk_summaries:
                        summaries[summary.seed] = summary
                        n_simulated += 1
                        if telemetry is not None:
                            telemetry.count("campaign.reps_simulated")
                        if cache is not None:
                            cache.put(keys[summary.seed], summary.to_dict())
            index += len(seeds_batch)

        with _span(telemetry, "campaign.fold"):
            ordered = [summaries[s] for s in sorted(summaries)]
            # Cached-but-unused entries beyond an early stop still count
            # toward the aggregate: free evidence, already paid for.
            return _aggregate(config, ordered, n_simulated, n_cached, stopped_early)


def run_campaign_reference(
    config: CampaignConfig,
    workers: int = 1,
    cache: Optional[RunCache] = None,
    telemetry: Optional[Telemetry] = None,
) -> CampaignResult:
    """The pre-chunking campaign driver: one pool task per replication,
    full spec pickled per task, stop checks re-pooling every summary.

    Retained as the equivalence oracle for :func:`run_campaign` — the
    chunk-equivalence property suite pins folded aggregates, verdicts,
    and cache interaction as bit-identical across the two drivers at
    any ``workers`` / ``chunk_size`` setting.
    """
    with _span(telemetry, "campaign"):
        specs: Dict[int, ReplicationSpec] = {}
        keys: Dict[int, str] = {}
        summaries: Dict[int, ReplicationSummary] = {}
        todo: List[ReplicationSpec] = []
        with _span(telemetry, "campaign.plan"):
            platform = config.platform_spec()
            scheduler_specs = config.scheduler_specs()
            for seed in config.seeds:
                specs[seed] = ReplicationSpec(
                    workload=config.workload_spec(seed),
                    platform=platform,
                    schedulers=scheduler_specs,
                )
        n_cached = 0
        with _span(telemetry, "campaign.cache"):
            for seed in config.seeds:
                spec = specs[seed]
                if cache is not None:
                    keys[seed] = run_cache_key(spec.workload, platform, scheduler_specs)
                    payload = cache.get(keys[seed])
                    if payload is not None:
                        summaries[seed] = ReplicationSummary.from_dict(payload)
                        n_cached += 1
                        if telemetry is not None:
                            telemetry.count("campaign.cache_hits")
                        continue
                    if telemetry is not None:
                        telemetry.count("campaign.cache_misses")
                todo.append(spec)

        rule = config.early_stop
        batch = rule.check_every if rule is not None else max(1, len(todo))
        stopped_early = False
        n_simulated = 0
        index = 0
        while index < len(todo):
            if rule is not None:
                with _span(telemetry, "campaign.stop_check"):
                    done = [summaries[s] for s in sorted(summaries)]
                    pooled = _pooled_counts(done)
                    counts = [
                        tuple(entry)
                        for sched in config.schedulers
                        for _, entry in sorted(pooled.get(sched, {}).items())
                    ]
                    stop = rule.should_stop(len(done), counts)
                if stop:
                    stopped_early = True
                    break
            chunk = todo[index : index + batch]
            with _span(telemetry, "campaign.simulate"):
                for summary in run_sweep(
                    _run_replication, chunk, max_workers=workers, telemetry=telemetry
                ):
                    summaries[summary.seed] = summary
                    n_simulated += 1
                    if telemetry is not None:
                        telemetry.count("campaign.reps_simulated")
                    if cache is not None:
                        cache.put(keys[summary.seed], summary.to_dict())
            index += len(chunk)

        with _span(telemetry, "campaign.fold"):
            ordered = [summaries[s] for s in sorted(summaries)]
            return _aggregate(config, ordered, n_simulated, n_cached, stopped_early)
