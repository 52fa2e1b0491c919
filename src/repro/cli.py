"""Command-line interface: ``repro-eua`` (or ``python -m repro.cli``).

Subcommands regenerate the paper's evaluation from a terminal::

    repro-eua figure2 --energy E1 --seeds 11 13 17 [--svg fig2.svg]
    repro-eua figure3 [--svg fig3.svg]
    repro-eua mp --cores 1 2 4 8 --modes partitioned global [--svg mp.svg]
    repro-eua mp --smoke
    repro-eua theorems
    repro-eua table1
    repro-eua table2
    repro-eua schedulers
    repro-eua simulate --load 1.2 --schedulers "EUA*" EDF
    repro-eua bound --load 0.6
    repro-eua ablate dvs|fopt|dvs-method|dasa
    repro-eua trace --load 0.8 --jsonl
    repro-eua obs --load 0.8 --repeats 3 [--dashboard obs.svg]
    repro-eua stats --load 0.8 -n 200 --workers 4 [--early-stop] [--cache-dir .stats-cache]
    repro-eua profile --load 0.8 -n 16 --workers 4 [--dashboard profile.svg]
    repro-eua check --scheduler "EUA*" --load 0.8
    repro-eua check --corpus tests/corpus/<case>.json
    repro-eua fuzz --budget 100 --seed 0 [--registry-shapes]
    repro-eua arrivals
    repro-eua threshold --smoke [--svg phase.svg] [--bench]
    repro-eua threshold --shapes nhpp-diurnal flash-crowd --load-range 1.5 4.5
    repro-eua serve --port 8787 --load 0.8 --rate 10
    repro-eua loadtest --smoke [--bench]
    repro-eua loadtest --arrivals flash-crowd --rate 25 --connections 8

The parser is table-driven: ``_FLAGS`` declares each shared flag once,
and each ``_COMMANDS`` entry lists the flags its subcommand takes, in
``--help`` order.  Handlers import their heavy modules lazily, so
``python -m repro serve`` starts without the stats, viz or artifact
layers.
"""

from __future__ import annotations

import argparse
import sys
from time import perf_counter
from typing import Any, Dict, List, Optional

from .cpu import FrequencyScale
from .experiments import (
    DEFAULT_HORIZON,
    DEFAULT_SEEDS,
    FIGURE2_LOADS,
    MULTICORE_CORES,
    MULTICORE_LOADS,
    MULTICORE_SCHEDULERS,
    TABLE1,
    TABLE2_NAMES,
    WorkloadSpec,
    ablate_dasa,
    ablate_dvs,
    ablate_dvs_method,
    ablate_fopt,
    ascii_table,
    check_assurances,
    check_edf_equivalence,
    energy_setting,
    multicore_units,
    run_figure2,
    run_figure3,
    run_multicore,
    sweep_ladder_granularity,
    sweep_rho,
    sweep_taskset_size,
    synthesize_taskset,
)
from .sched import available_schedulers, make_scheduler
from .sim import TaskModelError

__all__ = ["main"]


# ----------------------------------------------------------------------
# Argument types
# ----------------------------------------------------------------------
def _arrival_shape_arg(text: str):
    """argparse type for ``--arrivals``: ``name`` or ``name:key=val,...``
    resolved against the arrival registry."""
    from .experiments import ArrivalShape

    try:
        return ArrivalShape.parse(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _positive_int(text: str) -> int:
    """argparse type for core counts: an integer >= 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return value


def _host_port(text: str):
    """argparse type for ``--address``: ``HOST:PORT`` → ``(host, port)``,
    the host defaulting to 127.0.0.1 and the port in 1..65535."""
    host, sep, port = text.rpartition(":")
    try:
        number = int(port) if sep else 0
    except ValueError:
        number = 0
    if not 1 <= number <= 65535:
        raise argparse.ArgumentTypeError(
            f"expected HOST:PORT with a port in 1..65535, got {text!r}"
        )
    return host or "127.0.0.1", number


# ----------------------------------------------------------------------
# Helpers the handlers share
# ----------------------------------------------------------------------
def _write_svg_pair(render, result, svg: str) -> None:
    """``render(result, metric, path)`` into ``<base>_{utility,energy}.svg``."""
    base = svg[:-4] if svg.endswith(".svg") else svg
    for metric in ("utility", "energy"):
        path = f"{base}_{metric}.svg"
        render(result, metric, path)
        print(f"wrote {path}")


def _write_dashboard(report, path: Optional[str]) -> None:
    """``--dashboard``: the phase report as the SVG time-attribution chart."""
    if path:
        from .viz import render_phase_report

        render_phase_report(report, path)
        print(f"wrote {path}")


def _write_bench(name: str, result) -> None:
    """``--bench``: ``result``'s metrics, directions and meta as
    ``BENCH_<name>.json`` for the regression gate."""
    from .artifacts import write_bench_artifact

    path = write_bench_artifact(name, result.metrics(), result.directions(), result.meta())
    print(f"wrote {path}")


def _run_cache(args: argparse.Namespace):
    from .stats import RunCache

    return RunCache(args.cache_dir) if args.cache_dir else None


def _campaign(args: argparse.Namespace, config, telemetry=None):
    """Run ``config`` over ``--workers``/``--cache-dir``/``--chunk-size``;
    returns the result and, given ``telemetry``, its phase report."""
    from .stats import run_campaign

    t0 = perf_counter()
    result = run_campaign(config, workers=args.workers, cache=_run_cache(args),
                          telemetry=telemetry, chunk_size=args.chunk_size)
    wall = perf_counter() - t0
    if telemetry is None:
        return result, None
    from .obs import build_phase_report

    return result, build_phase_report(telemetry, wall_clock=wall)


# ----------------------------------------------------------------------
# Handlers
# ----------------------------------------------------------------------
def _cmd_figure2(args: argparse.Namespace) -> int:
    result = run_figure2(
        energy_setting_name=args.energy,
        loads=args.loads or FIGURE2_LOADS,
        seeds=args.seeds or DEFAULT_SEEDS,
        horizon=args.horizon,
        workers=args.workers,
    )
    print(f"Figure 2 — energy setting {result.energy_setting}")
    print(
        ascii_table(
            result.rows(),
            ["load", "scheduler", "norm_utility", "norm_energy"],
        )
    )
    if args.svg:
        from .viz import render_figure2

        _write_svg_pair(render_figure2, result, args.svg)
    return 0


def _cmd_figure3(args: argparse.Namespace) -> int:
    result = run_figure3(
        loads=args.loads or FIGURE2_LOADS,
        seeds=args.seeds or DEFAULT_SEEDS,
        horizon=args.horizon,
        workers=args.workers,
    )
    print("Figure 3 — normalised energy of EUA* under UAM <a, P>")
    print(ascii_table(result.rows(), ["a", "load", "norm_energy"]))
    if args.svg:
        from .viz import render_figure3

        render_figure3(result, args.svg)
        print(f"wrote {args.svg}")
    return 0


_MP_COLUMNS = ["mode", "cores", "load", "scheduler",
               "norm_utility", "norm_energy", "migrations"]


def _cmd_mp(args: argparse.Namespace) -> int:
    if args.smoke:
        # CI gate: a tiny m=2 campaign exercising both execution models
        # end to end (partition, engines, normalisation), then every arm
        # again under a collecting invariant checker.
        smoke = dict(energy_setting_name=args.energy, cores=(2,),
                     modes=("partitioned", "global"), loads=(0.8,), seeds=(11,),
                     horizon=0.3)
        result = run_multicore(**smoke, workers=1)
        print(f"mp smoke — energy setting {result.energy_setting} (m=2, load 0.8)")
        print(ascii_table(result.rows(), _MP_COLUMNS))
        return _audit_mp_units(multicore_units(**smoke))
    result = run_multicore(
        energy_setting_name=args.energy,
        cores=tuple(args.cores or MULTICORE_CORES),
        modes=tuple(args.modes),
        loads=tuple(args.loads or MULTICORE_LOADS),
        seeds=tuple(args.seeds or DEFAULT_SEEDS),
        horizon=args.horizon,
        scheduler_names=tuple(args.schedulers),
        partition_strategy=args.partition_strategy,
        active_power=args.active_power,
        workers=args.workers,
    )
    print(f"Multicore frontiers — energy setting {result.energy_setting}")
    print(ascii_table(result.rows(), _MP_COLUMNS))
    if args.svg:
        from .viz import render_multicore

        _write_svg_pair(render_multicore, result, args.svg)
    return 0


def _cmd_theorems(args: argparse.Namespace) -> int:
    ev = check_edf_equivalence(load=args.load)
    print("Theorem 2 / Corollaries 3-4 (underload EDF equivalence):")
    print(f"  underload regime:        {ev.underload}")
    print(f"  equal total utility:     {ev.equal_utility}")
    print(f"  same completion order:   {ev.same_completion_order}")
    print(f"  all critical times met:  {ev.all_critical_times_met}")
    print(f"  max lateness EUA*/EDF:   {ev.max_lateness_eua:.6f} / {ev.max_lateness_edf:.6f}")
    out = check_assurances(load=args.load)
    print("Theorem 5/6 (statistical assurances, linear TUFs):")
    print(f"  BRH-schedulable:         {out['brh_schedulable']}")
    print(f"  all {{nu, rho}} satisfied: {out['all_satisfied']}")
    print(f"  min attainment:          {out['min_attainment']:.3f}")
    return 0


def _cmd_table1(args: argparse.Namespace) -> int:
    rows = [
        {
            "app": a.name,
            "tasks": a.n_tasks,
            "a": a.max_arrivals,
            "P_range_s": f"[{a.window_range[0]}, {a.window_range[1]}]",
            "Umax_range": f"[{a.umax_range[0]}, {a.umax_range[1]}]",
        }
        for a in TABLE1
    ]
    print("Table 1 — task settings (reconstruction; see DESIGN.md)")
    print(ascii_table(rows, ["app", "tasks", "a", "P_range_s", "Umax_range"]))
    return 0


def _cmd_table2(args: argparse.Namespace) -> int:
    scale = FrequencyScale.powernow_k6()
    rows = []
    for name in TABLE2_NAMES:
        model = energy_setting(name, scale.f_max)
        row = {"setting": name, "S3": model.s3, "S2": model.s2, "S1": model.s1, "S0": model.s0}
        for f in scale.levels:
            row[f"E({int(f)})"] = model.energy_per_cycle(f) / model.energy_per_cycle(scale.f_max)
        rows.append(row)
    cols = ["setting", "S3", "S2", "S1", "S0"] + [f"E({int(f)})" for f in scale.levels]
    print("Table 2 — energy settings; E(f) columns normalised to E(f_max)")
    print(ascii_table(rows, cols))
    return 0


def _cmd_schedulers(args: argparse.Namespace) -> int:
    for name in available_schedulers():
        print(name)
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    from .sim import Platform, compare

    _taskset, trace = WorkloadSpec(
        args.load,
        args.seed,
        args.horizon,
        tuf_shape=args.tuf,
        nu=args.nu,
        rho=args.rho,
        arrival_mode=args.arrivals.name,
        arrival_params=args.arrivals.params,
    ).build()
    platform = Platform(energy_model=energy_setting(args.energy))
    runs = compare(
        [make_scheduler(n) for n in args.schedulers],
        trace,
        platform=platform,
        workers=args.workers,
    )
    rows = []
    for name, r in runs.items():
        rows.append(
            {
                "scheduler": name,
                "norm_utility": r.metrics.normalized_utility,
                "energy": r.energy,
                "completed": r.metrics.completed,
                "aborted": r.metrics.aborted,
                "expired": r.metrics.expired,
                "avg_MHz": r.processor_stats.average_frequency,
            }
        )
    print(f"load={args.load} energy={args.energy} jobs={len(trace)} horizon={args.horizon}s")
    print(ascii_table(rows, ["scheduler", "norm_utility", "energy", "completed",
                             "aborted", "expired", "avg_MHz"]))
    return 0


def _cmd_bound(args: argparse.Namespace) -> int:
    from .analysis import jobs_from_trace, yds_energy
    from .core import EUAStar
    from .sim import Platform, simulate

    _taskset, trace = WorkloadSpec(args.load, args.seed, args.horizon).build()
    model = energy_setting(args.energy)
    result = simulate(trace, EUAStar(), platform=Platform(energy_model=model))
    bound = yds_energy(jobs_from_trace(trace), model)
    print(f"clairvoyant YDS bound: {bound:.4e}")
    print(f"EUA* measured energy:  {result.energy:.4e}")
    print(f"ratio (>= 1):          {result.energy / bound:.3f}")
    return 0


def _audit_mp_units(units) -> int:
    """Re-run every arm of ``units`` under a collecting checker; 1 on any violation."""
    from .check import InvariantChecker

    found = 0
    for unit in units:
        _taskset, trace = unit.workload.build()
        for spec in unit.schedulers:
            checker = InvariantChecker(mode="collect")
            name = unit.platform.run(trace, spec, checker=checker).scheduler_name
            for violation in checker.violations:
                print(f"  {unit.platform.mp_mode} {name}: {violation}")
            found += len(checker.violations)
    print(f"invariants: {found} violation(s)" if found else "invariants: all clean")
    return 1 if found else 0


#: ``repro ablate`` and ``repro sensitivity``: name → (sweep, table columns).
_ABLATIONS = {
    "dvs": (ablate_dvs, ["load", "energy_ratio", "utility_dvs", "utility_fmax"]),
    "fopt": (ablate_fopt, ["energy_setting", "with_fopt", "without_fopt"]),
    "dvs-method": (ablate_dvs_method, ["a", "lookahead_energy", "demand_energy",
                                       "lookahead_utility", "demand_utility"]),
    "dasa": (ablate_dasa, ["load", "eua_utility", "dasa_utility", "edf_utility",
                           "energy_ratio"]),
}
_SENSITIVITY = {
    "rho": (sweep_rho, ["rho", "norm_energy", "utility", "min_attainment"]),
    "size": (sweep_taskset_size, ["n_tasks", "norm_energy", "utility", "min_attainment"]),
    "ladder": (sweep_ladder_granularity, ["levels", "norm_energy", "utility",
                                          "min_attainment"]),
}


def _named_sweep(title: str, table):
    """Handler running the sweep ``table`` names in the ``which`` argument."""

    def run(args: argparse.Namespace) -> int:
        sweep, cols = table[args.which]
        seeds = tuple(args.seeds) if args.seeds else DEFAULT_SEEDS
        rows = sweep(seeds=seeds, horizon=args.horizon, workers=args.workers)
        print(f"{title}: {args.which}")
        print(ascii_table(rows, cols))
        return 0

    return run


def _traced_run(args: argparse.Namespace, observer, seed: int):
    """One simulation at ``seed`` with ``observer`` attached (trace/obs)."""
    from .sim import Platform, simulate

    _taskset, workload = WorkloadSpec(args.load, seed, args.horizon).build()
    result = simulate(
        workload,
        make_scheduler(args.scheduler),
        Platform(energy_model=energy_setting(args.energy)),
        record_trace=True,
        observer=observer,
    )
    return workload, result


def _cmd_trace(args: argparse.Namespace) -> int:
    from .obs import Observer, events_to_jsonl

    observer = Observer(events=True, metrics=True)
    workload, result = _traced_run(args, observer, args.seed)

    if args.jsonl or args.decisions:
        # --jsonl: the execution timeline (segments only), the format
        # Trace.from_jsonl round-trips.  --decisions: the structured
        # event log (EventLog JSONL).
        text = events_to_jsonl(observer.events) if args.decisions else result.trace.to_jsonl()
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text)
            print(f"wrote {args.out}", file=sys.stderr)
        else:
            sys.stdout.write(text)
        return 0

    trace = result.trace
    events = observer.events
    print(f"scheduler={args.scheduler} load={args.load} jobs={len(workload)} "
          f"horizon={args.horizon}s")
    print(f"segments={len(trace.segments)} decision-events={len(events)}")
    rows = []
    for e in list(events)[-args.limit:]:
        rows.append({
            "seq": e.seq,
            "t": f"{e.time:.6f}",
            "kind": e.kind.value,
            "job": e.job or "-",
            "source": e.source,
            "detail": ",".join(f"{k}={v:.4g}" if isinstance(v, float) else f"{k}={v}"
                               for k, v in e.fields.items()),
        })
    print(ascii_table(rows, ["seq", "t", "kind", "job", "source", "detail"]))
    print("(--jsonl for the machine-readable trace, --decisions for the "
          "structured decision log)")
    return 0


def _cmd_runtime(args: argparse.Namespace) -> int:
    from .experiments.adaptive import compare_adaptive, uam_violating_trace
    from .runtime import RuntimeConfig

    config = RuntimeConfig(
        policy=args.policy,
        drift_detector=args.detector,
        drift_threshold=args.drift_threshold,
        min_samples=args.min_samples,
        headroom=args.headroom,
    )
    trace = None
    if args.scenario == "uam-burst":
        trace = uam_violating_trace(
            seed=args.seed, load=args.load, horizon=args.horizon,
            burst_factor=args.burst_factor,
        )
    cmp = compare_adaptive(
        trace=trace,
        seed=args.seed,
        load=args.load,
        horizon=args.horizon,
        drift_at=args.drift_at,
        drift_factor=args.drift_factor,
        config=config,
    )
    print(f"scenario={args.scenario} seed={args.seed} load={args.load} "
          f"policy={args.policy} detector={args.detector} "
          f"threshold={args.drift_threshold}")
    print(ascii_table(cmp.rows(), ["arm", "utility", "norm_utility", "energy",
                                   "completed", "expired", "aborted", "shed"]))
    print("runtime counters: "
          + "  ".join(f"{k}={v:g}" for k, v in sorted(cmp.runtime_summary.items())))
    print(f"utility gain: {cmp.utility_gain:+.3f}   "
          f"energy saving: {cmp.energy_saving:+.4g}   "
          f"frontier improved: {cmp.improves_frontier}")
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    from .check import load_case, replay_case, run_check

    if args.corpus:
        from pathlib import Path

        target = Path(args.corpus)
        paths = sorted(target.glob("*.json")) if target.is_dir() else [target]
        if not paths:
            print(f"no corpus cases under {target}")
            return 0
        failing = 0
        for path in paths:
            outcome = replay_case(load_case(path))
            status = "STILL FAILING" if outcome.still_failing else "ok"
            print(f"{path}: {status}")
            for msg in outcome.messages:
                print(f"  {msg}")
            failing += outcome.still_failing
        print(f"{len(paths)} case(s), {failing} still failing")
        return 1 if failing else 0

    report = run_check(
        scheduler=args.scheduler,
        load=args.load,
        seed=args.seed,
        horizon=args.horizon,
        energy=args.energy,
        arrivals=args.arrivals.name,
        arrival_params=args.arrivals.params,
        tuf=args.tuf,
    )
    print(f"scheduler={report.scheduler} load={args.load} jobs={report.jobs} "
          f"utility={report.accrued_utility:.4g} energy={report.energy:.4g}")
    if report.ok:
        print("invariants: all clean")
        return 0
    print(f"invariants: {len(report.violations)} violation(s)")
    for v in report.violations:
        print(f"  {v}")
    return 1


def _cmd_fuzz(args: argparse.Namespace) -> int:
    from pathlib import Path

    from .check import run_fuzz

    shapes = None
    if args.registry_shapes:
        from .arrivals import workload_shape_names

        shapes = tuple(workload_shape_names())
    corpus_dir = None if args.no_corpus else Path(args.corpus_dir)
    report = run_fuzz(
        budget=args.budget,
        seed=args.seed,
        corpus_dir=corpus_dir,
        shrink=not args.no_shrink,
        log=print if args.verbose else None,
        shapes=shapes,
    )
    print(f"fuzz: {report.scenarios_run}/{report.budget} scenarios, "
          f"{len(report.findings)} finding(s), seed={report.seed}")
    for f in report.findings:
        tag = f.invariant or f.oracle
        where = f" [{f.scheduler}]" if f.scheduler else ""
        print(f"  {tag}{where}: {f.message}")
        if f.corpus_path:
            print(f"    corpus: {f.corpus_path}")
    return 0 if report.ok else 1


def _cmd_obs(args: argparse.Namespace) -> int:
    from .obs import MetricsRegistry, Observer, SpanTracer, build_phase_report
    from .experiments import render_obs_summary

    merged = MetricsRegistry()
    tracer = SpanTracer()
    for rep in range(args.repeats):
        observer = Observer(events=False, metrics=True, spans=True)
        _traced_run(args, observer, args.seed + rep)
        merged.merge(observer.metrics)
        tracer.merge(observer.spans)
    print(f"scheduler={args.scheduler} load={args.load} horizon={args.horizon}s "
          f"repeats={args.repeats}")
    print(render_obs_summary(merged))
    report = build_phase_report(tracer)
    print()
    print(report.render())
    _write_dashboard(report, args.dashboard)
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    from .stats import CampaignConfig, EarlyStopRule, render_campaign

    rule = None
    if args.early_stop:
        rule = EarlyStopRule(
            min_replications=args.min_replications,
            confidence=args.stop_confidence,
            check_every=args.check_every,
        )
    config = CampaignConfig(
        load=args.load,
        horizon=args.horizon,
        schedulers=tuple(args.schedulers),
        n_replications=args.n,
        base_seed=args.seed,
        confidence=args.confidence,
        tuf_shape=args.tuf,
        nu=args.nu,
        rho=args.rho,
        arrival_mode=args.arrivals.name,
        arrival_params=args.arrivals.params,
        energy=args.energy,
        early_stop=rule,
        cores=args.cores,
        mp_mode=args.mp_mode,
        partition_strategy=args.partition_strategy,
    )
    telemetry = None
    if args.spans or args.dashboard:
        from .obs import Telemetry

        telemetry = Telemetry()
    result, report = _campaign(args, config, telemetry)
    print(render_campaign(result))
    if report is not None:
        print()
        print(report.render())
        _write_dashboard(report, args.dashboard)
    return 1 if result.verdict == "fail" else 0


def _cmd_arrivals(args: argparse.Namespace) -> int:
    from .arrivals import create_arrival_generator, workload_shape_names

    rows = []
    for name in workload_shape_names():
        gen = create_arrival_generator(name, a=3, window=0.1)
        params = ", ".join(
            f"{k}={v:.4g}" if isinstance(v, float) else f"{k}={v}"
            for k, v in gen.to_config().items()
            if k != "name"
        )
        rows.append({"name": name, "defaults_for_<3,0.1>": params})
    print("registered arrival shapes (--arrivals NAME[:K=V,...]):")
    print(ascii_table(rows, ["name", "defaults_for_<3,0.1>"]))
    return 0


def _cmd_threshold(args: argparse.Namespace) -> int:
    from .experiments import (
        ArrivalShape,
        ThresholdConfig,
        run_threshold,
        smoke_config,
    )

    if args.smoke:
        config = smoke_config()
    else:
        config = ThresholdConfig(
            schedulers=tuple(args.schedulers),
            shapes=tuple(ArrivalShape.parse(s) for s in args.shapes),
            load_lo=args.load_range[0],
            load_hi=args.load_range[1],
            coarse_points=args.points,
            refine_iters=args.refine,
            n_replications=args.n,
            base_seed=args.seed,
            horizon=args.horizon,
            confidence=args.confidence,
            tuf_shape=args.tuf,
            nu=args.nu,
            rho=args.rho,
            energy=args.energy,
        )
    t0 = perf_counter()
    result = run_threshold(
        config,
        workers=args.workers,
        cache=_run_cache(args),
        chunk_size=args.chunk_size,
        log=print if args.verbose else None,
    )
    wall = perf_counter() - t0
    print(f"phase transition — {len(config.schedulers)} scheduler(s) x "
          f"{len(config.shapes)} shape(s), {result.n_campaigns} campaigns "
          f"({result.n_simulated} simulated, {result.n_cached} cached) "
          f"in {wall:.1f}s")
    print(ascii_table(
        result.rows(),
        ["scheduler", "shape", "threshold", "ci_low", "ci_high", "width"],
    ))
    if args.bench:
        _write_bench(args.bench_name, result)
    if args.svg:
        from .viz import render_threshold

        render_threshold(result, args.svg)
        print(f"wrote {args.svg}")
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from .obs import Telemetry, phase_report_to_jsonl
    from .stats import CampaignConfig

    config = CampaignConfig(
        load=args.load,
        horizon=args.horizon,
        schedulers=tuple(args.schedulers),
        n_replications=args.n,
        base_seed=args.seed,
        energy=args.energy,
    )
    result, report = _campaign(args, config, Telemetry())
    print(f"profile: scheduler(s)={','.join(config.schedulers)} load={args.load} "
          f"n={args.n} workers={args.workers} verdict={result.verdict}")
    print(report.render())
    if args.jsonl_out:
        with open(args.jsonl_out, "w") as fh:
            fh.write(phase_report_to_jsonl(report))
        print(f"wrote {args.jsonl_out}")
    _write_dashboard(report, args.dashboard)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    import numpy as np

    from .runtime import ViolationPolicy
    from .sim import Platform, WallClock
    from .svc import SchedulerService, ServiceCore

    taskset = synthesize_taskset(args.load, np.random.default_rng(args.seed))
    core = ServiceCore(
        taskset,
        Platform(energy_model=energy_setting(args.energy)),
        scheduler=make_scheduler(args.scheduler),
        policy=ViolationPolicy.parse(args.policy),
        headroom=args.headroom,
    )
    service = SchedulerService(
        core, clock=WallClock(rate=args.rate), host=args.host, port=args.port
    )

    async def _serve() -> None:
        await service.start()
        print(f"serving {len(taskset)} tasks at {service.address} "
              f"(clock rate {args.rate:g}x; POST /shutdown to stop)")
        await service.serve_until_shutdown()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        pass
    stats = core.stats()
    print("final: " + "  ".join(
        f"{k}={stats[k]}" for k in ("submitted", "admitted", "completed",
                                    "expired", "rejected", "shed_uam")
    ))
    return 0


def _cmd_loadtest(args: argparse.Namespace) -> int:
    from .svc import SMOKE_PRESET, run_load_test_sync

    if args.smoke:
        kwargs = SMOKE_PRESET
    else:
        kwargs = dict(
            load=args.load, seed=args.seed, horizon=args.horizon,
            shape=args.arrivals.name, shape_params=args.arrivals.params,
            rate=args.rate, connections=args.connections,
            policy=args.policy, headroom=args.headroom,
            scheduler=args.scheduler, address=args.address,
        )
    report = run_load_test_sync(**kwargs)
    print(report.render())
    if args.bench:
        _write_bench(args.bench_name, report)
    return 0 if report.errors == 0 else 1


# ----------------------------------------------------------------------
# Command table
# ----------------------------------------------------------------------
_POLICIES = ["shed", "defer", "admit-and-flag"]
_MODES = ["partitioned", "global"]
_SVG_PAIR = "write SVG charts to <base>_{utility,energy}.svg"
_BASE_SEED = "base seed; replication k uses seed + k"

#: Every flag two or more subcommands take, declared once.  ``flags``
#: lists extra option strings; a subcommand names the flag in its entry
#: below and overrides only its own default or help text.
_FLAGS: Dict[str, Dict[str, Any]] = {
    "--loads": dict(type=float, nargs="*", help="load sweep points"),
    "--seeds": dict(type=int, nargs="*", help="replication seeds"),
    "--seed": dict(type=int, default=11),
    "-n": dict(flags=("-n", "--n"), type=int, dest="n"),
    "--horizon": dict(type=float, default=2.0),
    "--load": dict(type=float, default=0.8),
    "--energy": dict(default="E1", choices=list(TABLE2_NAMES)),
    "--scheduler": dict(default="EUA*"),
    "--schedulers": dict(nargs="+", default=["EUA*"]),
    "--tuf": dict(default="step", choices=["step", "linear"]),
    "--nu": dict(type=float, default=1.0),
    "--rho": dict(type=float, default=0.96),
    "--arrivals": dict(default="periodic", type=_arrival_shape_arg,
                       metavar="NAME[:K=V,...]",
                       help="arrival shape from the registry (see "
                            "`repro arrivals`)"),
    "--confidence": dict(type=float, default=0.95,
                         help="two-sided Wilson interval coverage in the report"),
    "--cores": dict(type=_positive_int),
    "--partition-strategy": dict(default="wfd", choices=["wfd", "ffd"],
                                 help="bin-packing heuristic for partitioned mode"),
    "--policy": dict(default="shed", choices=_POLICIES, help="UAM violation policy"),
    "--headroom": dict(type=float, default=1.0,
                       help="admission capacity derating (>= 1)"),
    "--rate": dict(type=float, default=1.0,
                   help="clock rate: emulated seconds per wall second"),
    "--smoke": dict(action="store_true"),
    "--verbose": dict(action="store_true"),
    "--svg": dict(help="write an SVG chart to this path"),
    "--dashboard": dict(help="write the SVG time-attribution dashboard to this path"),
    "--cache-dir": dict(help="content-addressed run cache; re-runs load hits "
                             "instead of re-simulating"),
    "--bench": dict(action="store_true",
                    help="write the BENCH_<name>.json gate artifact "
                         "(to $REPRO_BENCH_ARTIFACTS or benchmarks/artifacts/)"),
    "--bench-name": dict(help="artifact name for --bench"),
    "--workers": dict(type=int, default=1,
                      help="process-pool size for the sweep (1 = serial; "
                           "results are identical at any setting)"),
    "--chunk-size": dict(type=int, default=None,
                         help="replications per pool task (default: auto-sized "
                              "from --workers and the batch budget; results are "
                              "identical at any setting)"),
}


def _o(flag: str, **override: Any):
    """``flag`` with ``override`` applied over its ``_FLAGS`` entry; a
    flag only one subcommand takes is declared whole this way."""
    return flag, override


#: Flag runs shared verbatim: the figure sweeps, one traced run, the service.
_SWEEP = ("--loads", "--seeds", _o("--horizon", default=DEFAULT_HORIZON), "--workers")
_RUN = ("--scheduler", "--load", "--energy", "--horizon", "--seed")
_SERVICE = (_o("--load", help="synthesis load of the hosted task set"), "--seed",
            "--energy", "--scheduler",
            _o("--policy", help="UAM violation policy at ingestion"), "--headroom")

#: (name, help, handler, options) per subcommand, in ``--help`` order.
_COMMANDS = (
    ("figure2", "normalised utility/energy vs load", _cmd_figure2,
     ("--energy", _o("--svg", help=_SVG_PAIR), *_SWEEP)),
    ("figure3", "EUA* energy vs load per UAM burst size", _cmd_figure3,
     ("--svg", *_SWEEP)),
    ("mp", "multicore frontiers: partitioned/global EUA* on m cores", _cmd_mp, (
        "--energy",
        _o("--cores", nargs="*",
           help=f"core counts m (default {' '.join(map(str, MULTICORE_CORES))})"),
        _o("--modes", nargs="+", default=list(_MODES), choices=_MODES,
           help="execution models to sweep"),
        _o("--schedulers", default=list(MULTICORE_SCHEDULERS),
           help="registry schedulers (must include the EDF normaliser)"),
        "--partition-strategy",
        _o("--active-power", type=float, default=0.0,
           help="per-active-core uncore power (W); 0 keeps the "
                "m=1 column bit-identical to figure2"),
        _o("--smoke", help="tiny m=2 campaign (both modes, one load, one seed) "
                           "for CI smoke testing, every arm audited by the "
                           "invariant checker (exit 1 on a violation); ignores "
                           "the sweep options"),
        _o("--svg", help=_SVG_PAIR),
        *_SWEEP,
    )),
    ("simulate", "one comparison run on a synthesised workload", _cmd_simulate, (
        _o("--load", default=1.0), "--energy", "--tuf", "--nu", "--rho",
        _o("--arrivals", help="arrival shape from the registry (see `repro "
                              "arrivals`), e.g. poisson, "
                              "nhpp-diurnal:peak_frac=0.25"),
        _o("--horizon", default=DEFAULT_HORIZON), "--seed",
        _o("--schedulers", default=["EUA*", "LA-EDF", "EDF"]), "--workers",
    )),
    ("bound", "compare EUA* energy to the YDS lower bound", _cmd_bound,
     (_o("--load", default=0.6), "--energy", "--horizon", "--seed")),
    ("ablate", "run a named ablation", _named_sweep("ablation", _ABLATIONS), (
        _o("which", choices=list(_ABLATIONS)), _o("--seeds", help=None),
        _o("--horizon", default=DEFAULT_HORIZON), "--workers",
    )),
    ("sensitivity", "parameter-sensitivity sweeps",
     _named_sweep("sensitivity sweep", _SENSITIVITY), (
        _o("which", choices=list(_SENSITIVITY)), _o("--seeds", help=None),
        _o("--horizon", default=DEFAULT_HORIZON), "--workers",
    )),
    ("trace", "dump one run's structured event trace", _cmd_trace, (
        *_RUN,
        _o("--jsonl", action="store_true",
           help="emit the execution trace's segments as JSONL "
                "(Trace.from_jsonl round-trips it; events are in "
                "--decisions)"),
        _o("--decisions", action="store_true",
           help="emit the scheduler decision log as JSONL instead"),
        _o("--out", help="write JSONL to this path instead of stdout"),
        _o("--limit", type=int, default=20,
           help="decision events shown in the human-readable view "
                "(0 shows all)"),
    )),
    ("check", "audit one run with the invariant checker (live decision checks "
              "+ post-hoc audit), or replay fuzz-corpus cases", _cmd_check, (
        *_RUN, "--arrivals", "--tuf",
        _o("--corpus", help="replay a corpus case file (or every *.json in a "
                            "directory) instead of synthesising a workload"),
    )),
    ("fuzz", "differential scenario fuzzer over the scheduler zoo", _cmd_fuzz, (
        _o("--budget", type=int, default=100,
           help="number of scenarios (deterministic in --seed)"),
        _o("--seed", default=0),
        _o("--corpus-dir", default="tests/corpus",
           help="where minimized failing cases are written"),
        _o("--no-corpus", action="store_true", help="do not write corpus files"),
        _o("--no-shrink", action="store_true",
           help="save failing workloads without minimizing them"),
        _o("--verbose", help="log findings as they occur"),
        _o("--registry-shapes", action="store_true",
           help="stratify scenarios over every spec-constructible "
                "arrival shape in the registry instead of the "
                "legacy four modes"),
    )),
    ("obs", "run with metrics + phase spans and summarise", _cmd_obs, (
        *_RUN,
        _o("--repeats", type=int, default=1,
           help="repetitions merged into one registry (seed, seed+1, ...)"),
        "--dashboard",
    )),
    ("stats", "Monte-Carlo assurance campaign: replicate, pool, and verify "
              "{nu, rho}", _cmd_stats, (
        "--load", "--energy", "--horizon", _o("--seed", help=_BASE_SEED),
        _o("-n", default=200, help="number of independent replications"),
        "--schedulers", "--tuf", "--nu", "--rho", "--arrivals", "--confidence",
        _o("--early-stop", action="store_true",
           help="stop once every {nu, rho} is decided at the "
                "stop confidence"),
        _o("--min-replications", type=int, default=50,
           help="floor before the early-stop rule may fire"),
        _o("--stop-confidence", type=float, default=0.999,
           help="decision confidence while peeking (stricter than "
                "--confidence)"),
        _o("--check-every", type=int, default=25,
           help="replications per batch between early-stop checks"),
        _o("--cores", default=1,
           help="processor count m; m > 1 runs the multicore engine "
                "(workload demand scales to load × m)"),
        _o("--mp-mode", default="partitioned", choices=_MODES,
           help="multicore execution model when --cores > 1"),
        "--partition-strategy", "--cache-dir",
        _o("--spans", action="store_true",
           help="trace phase spans and print the PhaseReport table "
                "(also implied by --dashboard)"),
        "--dashboard", "--workers", "--chunk-size",
    )),
    ("threshold", "locate the utilization phase transition per scheduler x "
                  "arrival shape (coarse sweep + bisection refinement)",
     _cmd_threshold, (
        _o("--smoke", help="the CI mini-sweep (EUA* vs EDF on nhpp-diurnal "
                           "and flash-crowd); ignores the sweep options"),
        _o("--schedulers", default=["EUA*", "EDF"]),
        _o("--shapes", nargs="+", default=["nhpp-diurnal", "flash-crowd"],
           metavar="NAME[:K=V,...]",
           help="arrival shapes from the registry (see `repro arrivals`)"),
        _o("--load-range", type=float, nargs=2, default=[0.5, 4.5],
           metavar=("LO", "HI"),
           help="nominal synthesis load range to sweep (UAM "
                "thinning shifts internet-shape transitions to "
                "~3-4 nominal)"),
        _o("--points", type=int, default=9,
           help="coarse grid points across the load range"),
        _o("--refine", type=int, default=3,
           help="bisection iterations inside the crossing bracket"),
        _o("-n", default=24, help="replications per sweep point"),
        _o("--seed", help=_BASE_SEED), "--horizon",
        _o("--confidence", help="Wilson interval coverage for the confidence band"),
        "--tuf", "--nu", "--rho", "--energy",
        _o("--cache-dir", help="content-addressed run cache shared with `stats`"),
        "--bench", _o("--bench-name", default="threshold_smoke"),
        _o("--svg", help="write the phase-diagram SVG to this path"),
        _o("--verbose", help="log each campaign evaluation as it completes"),
        "--workers", "--chunk-size",
    )),
    ("arrivals", "list registered arrival shapes and their spec-relative "
                 "defaults", _cmd_arrivals, ()),
    ("profile", "run a small campaign with span tracing and print where the "
                "wall-clock went", _cmd_profile, (
        "--load", "--energy", _o("--horizon", default=1.0),
        _o("--seed", help=_BASE_SEED),
        _o("-n", default=16, help="number of replications to profile over"),
        "--schedulers",
        _o("--cache-dir", help="content-addressed run cache (probes show up as "
                               "cache hit rate)"),
        _o("--jsonl-out",
           help="write the PhaseReport as versioned JSONL to this path"),
        "--dashboard", "--workers", "--chunk-size",
    )),
    ("theorems", "verify the timeliness theorems", _cmd_theorems,
     (_o("--load", default=0.6),)),
    ("runtime", "static vs adaptive EUA* under demand drift or UAM bursts",
     _cmd_runtime, (
        _o("--scenario", choices=["drift", "uam-burst"], default="drift"),
        "--seed", _o("--load", default=0.9), "--horizon", "--policy",
        _o("--detector", choices=["zscore", "cusum"], default="zscore"),
        _o("--drift-threshold", type=float, default=4.0,
           help="z threshold (zscore) or decision level h (cusum)"),
        _o("--min-samples", type=int, default=8),
        "--headroom",
        _o("--drift-at", type=float, default=0.3,
           help="drift onset as a fraction of the horizon"),
        _o("--drift-factor", type=float, default=2.0,
           help="true-demand scale after onset (drift scenario)"),
        _o("--burst-factor", type=int, default=2,
           help="simultaneous copies per arrival (uam-burst scenario)"),
    )),
    ("serve", "run the asyncio scheduler service (HTTP ingestion through "
              "UAM compliance + admission control, JSONL decision stream)",
     _cmd_serve, (
        *_SERVICE, "--rate",
        _o("--host", default="127.0.0.1"),
        _o("--port", type=int, default=8787,
           help="listen port (0 picks an ephemeral port)"),
    )),
    ("loadtest", "replay arrival-registry traffic against a service and "
                 "report jobs/s, shed rate and deadline-hit rate", _cmd_loadtest, (
        *_SERVICE, _o("--rate", default=25.0),
        _o("--horizon", default=4.0, help="emulated seconds of arrivals to replay"),
        _o("--arrivals", default="poisson"),
        _o("--connections", type=int, default=4,
           help="persistent loopback HTTP connections"),
        _o("--address", type=_host_port, metavar="HOST:PORT",
           help="target an already-running service instead of "
                "spinning one in-process"),
        _o("--smoke", help="the deterministic CI preset (ignores the "
                           "workload options)"),
        "--bench", _o("--bench-name", default="svc_loadtest"),
    )),
    ("table1", "print the Table 1 settings", _cmd_table1, ()),
    ("table2", "print the Table 2 energy models", _cmd_table2, ()),
    ("schedulers", "list registered policies", _cmd_schedulers, ()),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-eua",
        description="Reproduce the DATE'05 EUA* evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, handler, options in _COMMANDS:
        p = sub.add_parser(name, help=help_text)
        for spec in options:
            flag, override = (spec, {}) if isinstance(spec, str) else spec
            kwargs = {**_FLAGS.get(flag, {}), **override}
            p.add_argument(*kwargs.pop("flags", (flag,)), **kwargs)
        p.set_defaults(func=handler)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    known = available_schedulers()
    names = [getattr(args, "scheduler", None), *getattr(args, "schedulers", [])]
    unknown = [n for n in names if n is not None and n not in known]
    if unknown:
        message = f"unknown scheduler {unknown[0]!r}; choose from {', '.join(known)}"
    else:
        try:
            return args.func(args)
        except TaskModelError as exc:  # e.g. --nu 1.0 on a linear TUF: D_i = 0
            message = str(exc)
    print(f"{parser.prog} {args.command}: error: {message}", file=sys.stderr)
    return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
