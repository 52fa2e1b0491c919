"""Hot-loop kernels ≡ straight-line references, on live decision points.

The simulator's inner loops were rewritten with incremental
maintenance, key precomputation, and bisect-backed counting — each
paired with a retained ``*_reference`` transliteration.  The contract
is **bit identity**: every float the kernel produces comes from the
same expression in the same order as the reference, so ``==`` (never
``pytest.approx``) is the only acceptable comparison.

Where the fast-path differential suite probes synthetic job pools,
this one pins the kernels on *real* decision-point views: a capture
shim wrapped around EUA* re-evaluates every kernel/reference pair at
each scheduling event of a simulated UAM scenario, so the inputs carry
whatever partially-executed, mid-abort, burst-backlogged state the
engine actually produces.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arrivals import BurstUAMArrivals, ScatteredUAMArrivals, UAMSpec
from repro.core import (
    EUAStar,
    job_feasible,
    job_feasible_reference,
    job_uer,
    job_uer_reference,
    required_rate_demand,
    required_rate_demand_reference,
    required_rate_lookahead,
    required_rate_lookahead_reference,
    schedule_feasible,
    schedule_feasible_reference,
)
from repro.cpu import EnergyModel, FrequencyScale, Processor
from repro.demand import DeterministicDemand, NormalDemand
from repro.experiments import synthesize_taskset
from repro.experiments.adaptive import drifting_trace
from repro.mp import GlobalEngine, MulticorePlatform
from repro.obs import Observer, events_to_jsonl
from repro.runtime import AdaptiveRuntime, RuntimeConfig, ViolationPolicy
from repro.sim import Engine, Job, Platform, Task, TaskSet, materialize
from repro.sim.engine import EPS_TIME
from repro.sim.scheduler import (
    ArrivalWindow,
    SchedulerView,
    SchedulingEvent,
    pending_of_reference,
)
from repro.svc import ServiceCore
from repro.tuf import LinearTUF, StepTUF


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
@st.composite
def uam_scenarios(draw, non_abortable=False, step_only=False):
    """A synthesised UAM task set (mixed burst sizes) plus a seed.

    With ``non_abortable`` each task is drawn abortable or not, so
    individually infeasible jobs the policy may not abort stay ready.
    With ``step_only`` every TUF is a step, so EUA* keeps its rank
    between decisions; otherwise step and linear TUFs mix."""
    n = draw(st.integers(min_value=2, max_value=5))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    load = draw(st.floats(min_value=0.3, max_value=1.8))
    tasks = []
    for i in range(n):
        window = draw(st.floats(min_value=0.05, max_value=0.6))
        umax = draw(st.floats(min_value=1.0, max_value=80.0))
        a = draw(st.integers(min_value=1, max_value=3))
        mean = window * 60.0
        if step_only or draw(st.booleans()):
            tuf, nu = StepTUF(umax, window), 1.0
        else:
            tuf, nu = LinearTUF(umax, window), 0.3
        spec = UAMSpec(a, window)
        if a == 1:
            arrivals = None
        elif draw(st.booleans()):
            arrivals = BurstUAMArrivals(spec)
        else:
            arrivals = ScatteredUAMArrivals(spec)
        abortable = not (non_abortable and draw(st.booleans()))
        tasks.append(
            Task(f"T{i}", tuf, NormalDemand(mean, mean * 0.15),
                 spec, arrivals=arrivals, nu=nu, rho=0.9, abortable=abortable)
        )
    return TaskSet(tasks).scaled_to_load(load, 1000.0), seed


@st.composite
def job_pools(draw):
    """Candidate σ material: jobs with assorted progress, plus a time."""
    n = draw(st.integers(min_value=1, max_value=10))
    now = draw(st.floats(min_value=0.0, max_value=0.3))
    jobs = []
    for i in range(n):
        release = draw(st.floats(min_value=0.0, max_value=0.4))
        window = draw(st.floats(min_value=0.02, max_value=0.8))
        mean = draw(st.floats(min_value=5.0, max_value=400.0))
        task = Task(
            f"T{i}",
            StepTUF(draw(st.floats(min_value=1.0, max_value=50.0)), window),
            DeterministicDemand(mean),
            UAMSpec(1, window),
        )
        job = Job(task, 0, release, mean)
        job.executed = draw(st.floats(min_value=0.0, max_value=1.2)) * mean
        jobs.append(job)
    return jobs, now


# ----------------------------------------------------------------------
# The capture shim: every decision point of a real run probes the pairs
# ----------------------------------------------------------------------
def _assert_pending_matches(view):
    """The view's pending index (a lifecycle copy, a filtered parent
    map or one grouping pass) vs the scan-and-sort reference."""
    for task in view.taskset:
        group = view.pending_of(task)
        reference = pending_of_reference(view.ready, task)
        assert [id(j) for j in group] == [id(j) for j in reference]
        head = view.head_job_of(task)
        assert head is (reference[0] if reference else None)


def _reference_rank(policy, view):
    """Lines 10–11 and the UER sort as one fresh pass through the
    reference kernels: the oracle for the rank EUA* keeps."""
    t, f_m, model = view.time, view.scale.f_max, view.energy_model
    aborts, skipped, ranked = [], [], []
    for job in view.ready:
        if not job_feasible_reference(job, t, f_m):
            if policy.abort_infeasible and job.task.abortable:
                aborts.append(job)
            skipped.append(job)
            continue
        ranked.append((job_uer_reference(job, t, f_m, model), job.critical_time, job))
    ranked.sort(key=lambda e: (-e[0], e[1], e[2].release, e[2].index))
    return aborts, skipped, ranked


def _comparable(rank):
    aborts, skipped, ranked = rank
    return ([id(j) for j in aborts], [id(j) for j in skipped],
            [(metric, crit, id(job)) for metric, crit, job in ranked])


class _KernelProbe(EUAStar):
    """EUA* that differentially tests every kernel on each live view
    *before* deciding (the view is a frozen snapshot, but the Job
    objects mutate as the run advances — so the comparison must happen
    at decision time, not post-hoc).  It probes the view the caller
    hands it, the ``without(aborts)`` view its decideFreq step reads,
    and, under global dispatch, every per-core residual view.  Every
    ``(aborts, skipped, ranked)`` EUA* ranks with, kept between
    decisions or not, must equal a fresh pass through the reference
    kernels; ``kept`` counts the decisions the kept rank served and
    ``ranks`` every rank.  ``keep_from`` lowers the ready-set size the
    kept rank starts at, so small scenarios exercise it too."""

    def __init__(self, keep_from=None, **kwargs):
        super().__init__(**kwargs)
        if keep_from is not None:
            self._keep_min_ready = keep_from
        self.probes = 0
        self.derived = 0
        self.kept = 0
        self.ranks = 0

    def _rank(self, view, t, f_m):
        first = view.memo.get(self) is None
        got = super()._rank(view, t, f_m)
        assert _comparable(got) == _comparable(_reference_rank(self, view))
        self.kept += first and self._keeps_rank and len(view.ready) >= self._keep_min_ready
        self.ranks += 1
        return got

    def decide(self, view):
        t = view.time
        f_m = view.scale.f_max
        model = view.energy_model

        # decideFreq rate computations (Algorithm 2 + demand bound).
        assert required_rate_lookahead(view) == \
            required_rate_lookahead_reference(view)
        assert required_rate_demand(view) == \
            required_rate_demand_reference(view)

        _assert_pending_matches(view)

        # Per-job kernels on exactly the jobs EUA* is about to rank.
        for job in view.ready:
            assert job_feasible(job, t, f_m) == \
                job_feasible_reference(job, t, f_m)
            assert job_uer(job, t, f_m, model) == \
                job_uer_reference(job, t, f_m, model)

        self.probes += 1
        decision = super().decide(view)
        if decision.aborts:
            derived = view.without(decision.aborts)
            _assert_pending_matches(derived)
            assert required_rate_lookahead(derived) == \
                required_rate_lookahead_reference(derived)
            self.derived += 1
        return decision

    def decide_frequency(self, view, job):
        _assert_pending_matches(view)
        assert required_rate_lookahead(view) == \
            required_rate_lookahead_reference(view)
        self.probes += 1
        return super().decide_frequency(view, job)


@given(uam_scenarios())
@settings(max_examples=15, deadline=None)
def test_kernels_match_references_on_live_views(scenario):
    taskset, seed = scenario
    rng = np.random.default_rng(seed)
    trace = materialize(taskset, 1.0, rng)
    cpu = Processor(FrequencyScale.powernow_k6(), EnergyModel.e1())
    probe = _KernelProbe(keep_from=0)
    Engine(trace, probe, cpu).run()
    assert probe.probes > 0  # the shim actually saw decision points


@pytest.mark.parametrize("non_abortable", [False, True])
@given(data=st.data())
@settings(max_examples=12, deadline=None)
def test_kept_rank_matches_a_fresh_pass(non_abortable, data):
    """Step TUFs only: the rank EUA* keeps between decisions equals a
    fresh reference pass at every decision (the mixed scenarios above
    cover the full-pass fallback)."""
    taskset, seed = data.draw(uam_scenarios(non_abortable=non_abortable, step_only=True))
    trace = materialize(taskset, 1.0, np.random.default_rng(seed))
    probe = _KernelProbe(keep_from=0)
    Engine(trace, probe, Processor(FrequencyScale.powernow_k6(), EnergyModel.e1())).run()
    assert probe.kept > 0


def test_kept_rank_resumes_across_small_ready_sets():
    """UAM bursts at overload: the ready set crosses the kept rank's
    floor both ways, so the rank kept before a stretch of full passes
    serves again after it, still equal to a fresh pass."""
    rng = np.random.default_rng(11)
    taskset = synthesize_taskset(1.6, rng, arrival_mode="burst", burst_override=8)
    trace = materialize(taskset, 0.6, rng)
    probe = _KernelProbe()
    Engine(trace, probe, Processor(FrequencyScale.powernow_k6(), EnergyModel.e1())).run()
    assert 0 < probe.kept < probe.ranks


def test_probe_sees_derived_views():
    """An overloaded burst run makes EUA* abort, so the probe compares
    the ``without(aborts)`` views too (the property above would pass
    vacuously on them otherwise)."""
    rng = np.random.default_rng(3)
    trace = materialize(synthesize_taskset(1.6, rng), 1.0, rng)
    probe = _KernelProbe()
    Engine(trace, probe, Processor(FrequencyScale.powernow_k6(), EnergyModel.e1())).run()
    assert probe.derived > 0


@given(uam_scenarios(non_abortable=True))
@settings(max_examples=8, deadline=None)
def test_kernels_match_references_under_global_dispatch(scenario):
    """At m = 2 the selection calls read chained ``without()`` views
    and the per-core frequency step reads residual views built from
    bare ready lists; the index must match the reference on each."""
    taskset, seed = scenario
    taskset = taskset.scaled_to_load(taskset.load(1000.0) * 2, 1000.0)
    trace = materialize(taskset, 0.5, np.random.default_rng(seed))
    probe = _KernelProbe()
    platform = MulticorePlatform.from_platform(Platform(), cores=2)
    GlobalEngine(trace, probe, platform).run()
    assert probe.probes > 0


@given(uam_scenarios(non_abortable=True, step_only=True))
@settings(max_examples=8, deadline=None)
def test_kept_rank_matches_a_fresh_pass_under_global_dispatch(scenario):
    """At m = 2 the first selection call of an event reads the kept rank
    and the later ones filter it through the per-event memo."""
    taskset, seed = scenario
    taskset = taskset.scaled_to_load(taskset.load(1000.0) * 2, 1000.0)
    trace = materialize(taskset, 0.5, np.random.default_rng(seed))
    probe = _KernelProbe(keep_from=0)
    GlobalEngine(trace, probe, MulticorePlatform.from_platform(Platform(), cores=2)).run()
    assert probe.kept > 0


def test_kept_rank_matches_a_fresh_pass_across_reallocations():
    """The adaptive runtime re-derives a drifting task's allocation
    mid-run (``task._allocation`` changes and EUA* is set up again);
    the kept rank still equals a fresh pass at every decision."""
    trace = drifting_trace(seed=11, load=0.9, horizon=1.0)
    probe = _KernelProbe(keep_from=0)
    runtime = AdaptiveRuntime(RuntimeConfig(admission=False))
    Engine(trace, probe, Processor(FrequencyScale.powernow_k6(), EnergyModel.e1()),
           runtime=runtime).run()
    assert runtime.summary()["reallocations"] > 0
    assert probe.kept > 0


def test_kernels_match_references_in_a_service_session():
    """The service drives the same lifecycle through its admission
    gate (evictions and deferrals included); probe each of its views."""
    rng = np.random.default_rng(7)
    trace = materialize(synthesize_taskset(1.2, rng), 1.0, rng)
    probe = _KernelProbe(keep_from=0)
    core = ServiceCore(trace.taskset, Platform(), probe,
                       policy=ViolationPolicy.parse("defer"))
    specs = list(trace)
    i, t = 0, 0.0
    while t < trace.horizon - EPS_TIME:
        core.activate_due(t)
        while i < len(specs) and specs[i].release <= t + EPS_TIME:
            core.submit(specs[i].task.name, t, demand=specs[i].demand)
            i += 1
        decision = core.decide(t)
        job = decision.job
        timer = core.next_timer(t)
        t_next = min(
            trace.horizon,
            specs[i].release if i < len(specs) else math.inf,
            timer if timer is not None else math.inf,
            t + job.remaining_demand / decision.frequency if job is not None else math.inf,
        )
        t_next = max(t_next, t)
        core.advance(job, t_next - t, decision.frequency)
        if job is not None:
            core.complete_if_done(job, t_next)
        t = t_next
    assert probe.probes > 0 and core.counters["completed"] > 0
    assert probe.kept > 0


@given(uam_scenarios())
@settings(max_examples=10, deadline=None)
def test_probe_shim_is_transparent(scenario):
    """The shim itself must not perturb the run it is probing."""
    taskset, seed = scenario
    cpu = Processor(FrequencyScale.powernow_k6(), EnergyModel.e1())

    def run(policy):
        rng = np.random.default_rng(seed)
        trace = materialize(taskset, 1.0, rng)
        return Engine(trace, policy, cpu).run()

    plain = run(EUAStar())
    probed = run(_KernelProbe())
    assert probed.metrics.accrued_utility == plain.metrics.accrued_utility
    assert probed.energy == plain.energy


# ----------------------------------------------------------------------
# Feasibility fold kernels on synthetic σ material
# ----------------------------------------------------------------------
@given(job_pools())
@settings(max_examples=60, deadline=None)
def test_schedule_feasible_kernel_matches_reference(pool):
    jobs, now = pool
    f_max = 1000.0
    sigma = sorted(jobs, key=lambda j: j.critical_time)
    assert schedule_feasible(sigma, now, f_max) == \
        schedule_feasible_reference(sigma, now, f_max)
    for job in jobs:
        assert job_feasible(job, now, f_max) == \
            job_feasible_reference(job, now, f_max)


# ----------------------------------------------------------------------
# Maintained Job attributes vs their derived forms
# ----------------------------------------------------------------------
@given(
    release=st.floats(min_value=0.0, max_value=5.0),
    window=st.floats(min_value=0.01, max_value=1.0),
    re_release=st.floats(min_value=0.0, max_value=5.0),
)
@settings(max_examples=100, deadline=None)
def test_job_absolute_times_track_release(release, window, re_release):
    """``termination`` / ``critical_time`` are maintained attributes for
    the hot loops; the release setter must keep them equal to the
    derived expressions — including after the adaptive runtime's
    re-release path moves a job."""
    task = Task("T0", StepTUF(10.0, window), DeterministicDemand(50.0),
                UAMSpec(1, window))
    job = Job(task, 0, release, 50.0)
    for value in (release, re_release):
        job.release = value
        assert job.termination == value + task.tuf.termination
        assert job.critical_time == value + task.critical_time
        assert job.utility_at(value + window / 2) == \
            task.tuf.utility(window / 2)


# ----------------------------------------------------------------------
# Task.dvs_static: the cached tuple vs the five properties
# ----------------------------------------------------------------------
@given(
    window=st.floats(min_value=0.01, max_value=1.0),
    a=st.integers(min_value=1, max_value=6),
    mean=st.floats(min_value=1.0, max_value=500.0),
    new_alloc=st.floats(min_value=0.5, max_value=800.0),
)
@settings(max_examples=100, deadline=None)
def test_dvs_static_matches_properties_and_invalidates(window, a, mean,
                                                       new_alloc):
    spec = UAMSpec(a, window)
    task = Task("T0", StepTUF(10.0, window), NormalDemand(mean, mean * 0.1),
                spec, arrivals=BurstUAMArrivals(spec) if a > 1 else None,
                rho=0.9)

    def expected():
        return (task.uam.max_arrivals, task.allocation, task.critical_time,
                task.window_cycles / task.critical_time, task.window_cycles)

    assert task.dvs_static() == expected()
    assert task.dvs_static() is task.dvs_static()  # cached, not rebuilt
    # reallocate() is the one sanctioned post-construction mutation and
    # must drop the cache along with the allocation memo.
    task.reallocate(new_alloc)
    assert task.allocation == new_alloc
    assert task.dvs_static() == expected()


# ----------------------------------------------------------------------
# ArrivalWindow: the zero-copy log window vs a plain list
# ----------------------------------------------------------------------
@given(
    log=st.lists(st.floats(min_value=0.0, max_value=10.0), max_size=12),
    data=st.data(),
)
@settings(max_examples=150, deadline=None)
def test_arrival_window_is_sequence_equivalent(log, data):
    start = data.draw(st.integers(min_value=0, max_value=len(log)))
    stop = data.draw(st.integers(min_value=start, max_value=len(log)))
    window = ArrivalWindow(log, start, stop)
    plain = log[start:stop]

    assert len(window) == len(plain)
    assert list(window) == plain
    assert window == plain and plain == list(window)
    for i in range(-len(plain), len(plain)):
        assert window[i] == plain[i]
    for bad in (len(plain), -len(plain) - 1):
        with pytest.raises(IndexError):
            window[bad]
    assert window[:] == plain
    assert window[1:] == plain[1:]
    # Append-only growth of the underlying log must not move the view.
    log.append(math.inf)
    assert list(window) == plain


def test_arrival_window_defaults_span_the_log():
    log = [0.1, 0.2, 0.3]
    assert list(ArrivalWindow(log)) == log
    assert len(ArrivalWindow(log, 1)) == 2


# ----------------------------------------------------------------------
# EUA*'s per-event ranking memo vs memo-less views
# ----------------------------------------------------------------------
def _memoless(view):
    """A fresh copy of ``view`` with the same jobs and no memo: every
    ``decide`` on it runs the feasibility/UER/sort pass afresh."""
    return SchedulerView(view.time, view.ready, view.taskset, view.scale,
                         view.energy_model, view.event,
                         view._arrivals_in_window, view.energy_consumed,
                         view.dvs)


def _jsonl_from_zero(events):
    """JSONL of a run of events, renumbered from ``seq`` 0 (the two
    answers of one call land at different offsets of their logs)."""
    return events_to_jsonl(replace(e, seq=i) for i, e in enumerate(events))


class _MemoOracle(EUAStar):
    """EUA* that answers each selection call twice and compares.

    Once on the view the engine handed it, which reads the per-event
    memo shared along the ``without()`` chain, and once by a twin policy
    on a memo-less copy of the same view.  The two decisions must agree
    in job identity, frequency and aborts, and the events each answer
    emits must serialise to the same JSONL."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.twin = EUAStar(**kwargs)
        self.twin.bind_observer(Observer(events=True, metrics=False))
        self.calls = 0
        #: Calls whose view found a ranking stored by an earlier view.
        self.derived = 0

    def setup(self, taskset, scale, energy_model):
        super().setup(taskset, scale, energy_model)
        self.twin.setup(taskset, scale, energy_model)

    def decide(self, view):
        self.derived += view.memo.get(self) is not None
        mine = self.observer.events.events
        theirs = self.twin.observer.events.events
        start, mark = len(mine), len(theirs)
        got = super().decide(view)
        want = self.twin.decide(_memoless(view))
        assert got.job is want.job
        assert got.frequency == want.frequency
        assert len(got.aborts) == len(want.aborts)
        assert all(a is b for a, b in zip(got.aborts, want.aborts))
        assert _jsonl_from_zero(mine[start:]) == _jsonl_from_zero(theirs[mark:])
        self.calls += 1
        return got


class _Memoless(EUAStar):
    """EUA* that never reads a memo: the whole-run oracle."""

    def decide(self, view):
        return super().decide(_memoless(view))


#: EUA* settings the memo must hold under (each changes the ranking or σ).
MEMO_VARIANTS = {
    "uer": {},
    "utility_density": {"ordering": "utility_density"},
    "no-abort": {"abort_infeasible": False},
    "strict-break": {"strict_insertion_break": True},
    "reference-sigma": {"incremental": False},
}


def _global_events(trace, policy, m):
    """Run ``policy`` globally on ``m`` cores; the run's event JSONL."""
    obs = Observer(events=True, metrics=False)
    platform = MulticorePlatform.from_platform(Platform(), cores=m)
    GlobalEngine(trace, policy, platform, observer=obs).run()
    return events_to_jsonl(obs.events)


@pytest.mark.parametrize("m", [2, 3, 4])
@given(scenario=uam_scenarios(non_abortable=True),
       variant=st.sampled_from(sorted(MEMO_VARIANTS)))
@settings(max_examples=8, deadline=None)
def test_ranking_memo_matches_memoless_views(m, scenario, variant):
    """Each selection call of global dispatch answers exactly as a
    memo-less view of the same jobs would, and so does the whole run."""
    taskset, seed = scenario
    taskset = taskset.scaled_to_load(taskset.load(1000.0) * m, 1000.0)
    trace = materialize(taskset, 0.5, np.random.default_rng(seed))
    kwargs = MEMO_VARIANTS[variant]
    oracle = _MemoOracle(**kwargs)
    probed = _global_events(trace, oracle, m)
    assert oracle.calls > 0
    assert probed == _global_events(trace, _Memoless(**kwargs), m)


def test_ranking_memo_serves_the_later_selection_calls():
    """On a loaded 4-core run the later selection calls of an event do
    read the ranking the first call stored (the oracle above would
    pass vacuously otherwise)."""
    rng = np.random.default_rng(5)
    trace = materialize(synthesize_taskset(3.2, rng), 0.5, rng)
    oracle = _MemoOracle()
    _global_events(trace, oracle, 4)
    assert 0 < oracle.derived < oracle.calls


def test_second_decide_on_same_view_recomputes():
    """The memo serves the *derived* views of an event, never the same
    view twice: after a job advances, a second ``decide`` on the view
    answers like a fresh view (a stale ranking would abort job B)."""
    scale, model = FrequencyScale.powernow_k6(), EnergyModel.e1()
    f_max = scale.f_max
    a = Task("A", StepTUF(100.0, 1.0), DeterministicDemand(0.6 * f_max),
             UAMSpec(1, 1.0))
    b = Task("B", StepTUF(10.0, 0.9), DeterministicDemand(1.0 * f_max),
             UAMSpec(1, 0.9))
    taskset = TaskSet([a, b])
    job_a, job_b = Job(a, 0, 0.0, a.allocation), Job(b, 0, 0.0, b.allocation)
    view = SchedulerView(0.0, [job_a, job_b], taskset, scale, model,
                         SchedulingEvent.ARRIVAL, {"A": [0.0], "B": [0.0]})
    policy = EUAStar()
    policy.setup(taskset, scale, model)

    first = policy.decide(view)
    assert first.job is job_a and first.aborts == (job_b,)

    job_b.executed = 0.95 * f_max  # B now finishes in 0.05 s, ahead of A
    again = policy.decide(view)
    fresh = EUAStar()
    fresh.setup(taskset, scale, model)
    want = fresh.decide(_memoless(view))
    assert again.job is want.job is job_b
    assert again.frequency == want.frequency
    assert again.aborts == want.aborts == ()


# ----------------------------------------------------------------------
# The kept rank on hand-built views
# ----------------------------------------------------------------------
def _alike_jobs():
    """Two tasks alike in every parameter, one job each released at 0:
    equal UER, critical time, release and index, so only their order in
    ``ready`` ranks them."""
    scale, model = FrequencyScale.powernow_k6(), EnergyModel.e1()
    tasks = [Task(name, StepTUF(10.0, 1.0), DeterministicDemand(0.2 * scale.f_max),
                  UAMSpec(1, 1.0)) for name in ("A", "B")]
    taskset = TaskSet(tasks)
    policy = EUAStar()
    policy._keep_min_ready = 0  # keep the rank of two jobs too
    policy.setup(taskset, scale, model)
    jobs = [Job(task, 0, 0.0, task.allocation) for task in tasks]

    def rank(ready, t):
        view = SchedulerView(t, ready, taskset, scale, model,
                             SchedulingEvent.ARRIVAL, {"A": [0.0], "B": [0.0]})
        got = policy._rank(view, t, scale.f_max)
        assert got[2] is policy._kept.ranked  # served by the kept rank
        assert _comparable(got) == _comparable(_reference_rank(policy, view))
        return got

    return policy, jobs, rank


def test_kept_rank_breaks_ties_in_ready_order():
    """A view that lists kept jobs in another order than they were
    admitted in starts the rank over: ties follow the new order."""
    policy, (a, b), rank = _alike_jobs()
    assert policy._keeps_rank
    for ready in ([a, b], [b, a], [a, b], [b]):
        assert [job for _, _, job in rank(ready, 0.0)[2]] == ready


def test_kept_rank_follows_reallocation_and_time():
    """A reallocated task's jobs are ranked afresh even with no new
    ``setup()``, and a decision at an earlier instant starts over."""
    policy, (a, b), rank = _alike_jobs()
    f_max = FrequencyScale.powernow_k6().f_max
    rank([a, b], 0.0)
    a.task.reallocate(0.3 * f_max)  # A's UER drops below B's
    assert [job for _, _, job in rank([a, b], 0.1)[2]] == [b, a]
    assert rank([a, b], 0.75)[1] == [a]  # 0.3 s of work left at 0.75: too late
    assert [job for _, _, job in rank([a, b], 0.05)[2]] == [b, a]
    a.task.reallocate(2.0 * f_max)  # two seconds of work: infeasible
    aborts, skipped, ranked = rank([a, b], 0.2)
    assert aborts == skipped == [a] and [job for _, _, job in ranked] == [b]


def test_kept_rank_rekeys_a_job_ranked_before_its_release():
    """A deferred job may be admitted a hair before its release instant:
    ranked there, a nearly finished job completes "before" its release
    and its UER reads 0; once time passes the release it must not keep
    that 0."""
    _, (a, _), rank = _alike_jobs()
    task = a.task
    job = Job(task, 1, 0.5, task.allocation)
    job.executed = task.allocation  # budget spent: c is MIN_UER_CYCLES
    assert rank([job], 0.5 - 1e-6)[2][0][0] == 0.0
    assert rank([job], 0.6)[2][0][0] > 0.0
