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
"""

from __future__ import annotations

import argparse
import sys
from time import perf_counter
from typing import List, Optional

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
    ascii_table,
    check_assurances,
    check_edf_equivalence,
    energy_setting,
    run_figure2,
    run_figure3,
    run_multicore,
)
from .sched import available_schedulers, make_scheduler

__all__ = ["main"]


def _arrival_shape_arg(text: str):
    """argparse type for ``--arrivals``: ``name`` or ``name:key=val,...``
    resolved against the arrival registry."""
    from .experiments import ArrivalShape

    try:
        return ArrivalShape.parse(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


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

        base = args.svg[:-4] if args.svg.endswith(".svg") else args.svg
        for metric in ("utility", "energy"):
            path = f"{base}_{metric}.svg"
            render_figure2(result, metric, path)
            print(f"wrote {path}")
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


def _cmd_mp(args: argparse.Namespace) -> int:
    if args.smoke:
        # CI gate: a tiny m=2 campaign exercising both execution models
        # end to end (partition, engines, invariants, normalisation).
        result = run_multicore(
            energy_setting_name=args.energy,
            cores=(2,),
            modes=("partitioned", "global"),
            loads=(0.8,),
            seeds=(11,),
            horizon=0.3,
            workers=1,
        )
        print(f"mp smoke — energy setting {result.energy_setting} (m=2, load 0.8)")
        print(
            ascii_table(
                result.rows(),
                ["mode", "cores", "load", "scheduler",
                 "norm_utility", "norm_energy", "migrations"],
            )
        )
        return 0
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
    print(
        ascii_table(
            result.rows(),
            ["mode", "cores", "load", "scheduler",
             "norm_utility", "norm_energy", "migrations"],
        )
    )
    if args.svg:
        from .viz import render_multicore

        base = args.svg[:-4] if args.svg.endswith(".svg") else args.svg
        for metric in ("utility", "energy"):
            path = f"{base}_{metric}.svg"
            render_multicore(result, metric, path)
            print(f"wrote {path}")
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
    import numpy as np

    from .experiments import synthesize_taskset
    from .sim import Platform, compare, materialize

    rng = np.random.default_rng(args.seed)
    taskset = synthesize_taskset(
        args.load,
        rng,
        tuf_shape=args.tuf,
        nu=args.nu,
        rho=args.rho,
        arrival_mode=args.arrivals.name,
        arrival_params=args.arrivals.params,
    )
    trace = materialize(taskset, args.horizon, rng)
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
    import numpy as np

    from .analysis import jobs_from_trace, yds_energy
    from .core import EUAStar
    from .experiments import synthesize_taskset
    from .sim import Platform, materialize, simulate

    rng = np.random.default_rng(args.seed)
    taskset = synthesize_taskset(args.load, rng)
    trace = materialize(taskset, args.horizon, rng)
    model = energy_setting(args.energy)
    result = simulate(trace, EUAStar(), platform=Platform(energy_model=model))
    bound = yds_energy(jobs_from_trace(trace), model)
    print(f"clairvoyant YDS bound: {bound:.4e}")
    print(f"EUA* measured energy:  {result.energy:.4e}")
    print(f"ratio (>= 1):          {result.energy / bound:.3f}")
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    import numpy as np

    from .experiments import synthesize_taskset
    from .sim import Platform, materialize, simulate, validate_result

    rng = np.random.default_rng(args.seed)
    taskset = synthesize_taskset(args.load, rng)
    trace = materialize(taskset, args.horizon, rng)
    platform = Platform(energy_model=energy_setting(args.energy))
    result = simulate(trace, make_scheduler(args.scheduler), platform,
                      record_trace=True)
    report = validate_result(result, platform.energy_model)
    print(f"scheduler={args.scheduler} load={args.load} jobs={len(trace)}")
    print(f"validation: {report}")
    return 0 if report.ok else 1


def _cmd_sensitivity(args: argparse.Namespace) -> int:
    from .experiments import (
        sweep_ladder_granularity,
        sweep_rho,
        sweep_taskset_size,
    )

    seeds = tuple(args.seeds) if args.seeds else DEFAULT_SEEDS
    if args.which == "rho":
        rows = sweep_rho(seeds=seeds, horizon=args.horizon, workers=args.workers)
        cols = ["rho", "norm_energy", "utility", "min_attainment"]
    elif args.which == "size":
        rows = sweep_taskset_size(seeds=seeds, horizon=args.horizon,
                                  workers=args.workers)
        cols = ["n_tasks", "norm_energy", "utility", "min_attainment"]
    else:  # ladder
        rows = sweep_ladder_granularity(seeds=seeds, horizon=args.horizon,
                                        workers=args.workers)
        cols = ["levels", "norm_energy", "utility", "min_attainment"]
    print(f"sensitivity sweep: {args.which}")
    print(ascii_table(rows, cols))
    return 0


def _cmd_ablate(args: argparse.Namespace) -> int:
    from .experiments import ablate_dasa, ablate_dvs, ablate_dvs_method, ablate_fopt

    seeds = tuple(args.seeds) if args.seeds else DEFAULT_SEEDS
    if args.which == "dvs":
        rows = ablate_dvs(seeds=seeds, horizon=args.horizon, workers=args.workers)
        cols = ["load", "energy_ratio", "utility_dvs", "utility_fmax"]
    elif args.which == "fopt":
        rows = ablate_fopt(seeds=seeds, horizon=args.horizon, workers=args.workers)
        cols = ["energy_setting", "with_fopt", "without_fopt"]
    elif args.which == "dvs-method":
        rows = ablate_dvs_method(seeds=seeds, horizon=args.horizon,
                                 workers=args.workers)
        cols = ["a", "lookahead_energy", "demand_energy",
                "lookahead_utility", "demand_utility"]
    else:  # dasa
        rows = ablate_dasa(seeds=seeds, horizon=args.horizon, workers=args.workers)
        cols = ["load", "eua_utility", "dasa_utility", "edf_utility", "energy_ratio"]
    print(f"ablation: {args.which}")
    print(ascii_table(rows, cols))
    return 0


def _traced_run(args: argparse.Namespace, observer):
    """One simulation with ``observer`` attached (trace/stats commands)."""
    import numpy as np

    from .experiments import synthesize_taskset
    from .sim import Platform, materialize, simulate

    rng = np.random.default_rng(args.seed)
    taskset = synthesize_taskset(args.load, rng)
    workload = materialize(taskset, args.horizon, rng)
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
    workload, result = _traced_run(args, observer)

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
    base_seed = args.seed
    for rep in range(args.repeats):
        observer = Observer(events=False, metrics=True, spans=True)
        args.seed = base_seed + rep
        _traced_run(args, observer)
        merged.merge(observer.metrics)
        tracer.merge(observer.spans)
    args.seed = base_seed
    print(f"scheduler={args.scheduler} load={args.load} horizon={args.horizon}s "
          f"repeats={args.repeats}")
    print(render_obs_summary(merged))
    report = build_phase_report(tracer)
    print()
    print(report.render())
    if args.dashboard:
        from .viz import render_phase_report

        render_phase_report(report, args.dashboard)
        print(f"wrote {args.dashboard}")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    from .stats import (
        CampaignConfig,
        EarlyStopRule,
        RunCache,
        render_campaign,
        run_campaign,
    )

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
    cache = RunCache(args.cache_dir) if args.cache_dir else None
    telemetry = None
    if args.spans or args.dashboard:
        from .obs import Telemetry

        telemetry = Telemetry()
    t0 = perf_counter()
    result = run_campaign(config, workers=args.workers, cache=cache,
                          telemetry=telemetry, chunk_size=args.chunk_size)
    wall = perf_counter() - t0
    print(render_campaign(result))
    if telemetry is not None:
        from .obs import build_phase_report

        report = build_phase_report(telemetry, wall_clock=wall)
        print()
        print(report.render())
        if args.dashboard:
            from .viz import render_phase_report

            render_phase_report(report, args.dashboard)
            print(f"wrote {args.dashboard}")
    return 1 if result.verdict == "fail" else 0


def _cmd_arrivals(args: argparse.Namespace) -> int:
    from .arrivals import (
        arrival_generator_names,
        create_arrival_generator,
        workload_shape_names,
    )

    spec_shapes = set(workload_shape_names())
    rows = []
    for name in arrival_generator_names():
        if name in spec_shapes:
            gen = create_arrival_generator(name, a=3, window=0.1)
            params = ", ".join(
                f"{k}={v:.4g}" if isinstance(v, float) else f"{k}={v}"
                for k, v in gen.to_config().items()
                if k != "name"
            )
        else:
            params = "(trace-driven: needs explicit times)"
        rows.append({
            "name": name,
            "from_spec": "yes" if name in spec_shapes else "no",
            "defaults_for_<3,0.1>": params,
        })
    print("registered arrival shapes (--arrivals NAME[:K=V,...]):")
    print(ascii_table(rows, ["name", "from_spec", "defaults_for_<3,0.1>"]))
    return 0


def _cmd_threshold(args: argparse.Namespace) -> int:
    from .experiments import (
        ArrivalShape,
        ThresholdConfig,
        run_threshold,
        smoke_config,
        write_threshold_artifact,
    )
    from .stats import RunCache

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
    cache = RunCache(args.cache_dir) if args.cache_dir else None
    t0 = perf_counter()
    result = run_threshold(
        config,
        workers=args.workers,
        cache=cache,
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
        path = write_threshold_artifact(result, name=args.bench_name)
        print(f"wrote {path}")
    if args.svg:
        from .viz import render_threshold

        render_threshold(result, args.svg)
        print(f"wrote {args.svg}")
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from .obs import Telemetry, build_phase_report, phase_report_to_jsonl
    from .stats import CampaignConfig, RunCache, run_campaign

    config = CampaignConfig(
        load=args.load,
        horizon=args.horizon,
        schedulers=tuple(args.schedulers),
        n_replications=args.n,
        base_seed=args.seed,
        energy=args.energy,
    )
    cache = RunCache(args.cache_dir) if args.cache_dir else None
    telemetry = Telemetry()
    t0 = perf_counter()
    result = run_campaign(config, workers=args.workers, cache=cache,
                          telemetry=telemetry, chunk_size=args.chunk_size)
    wall = perf_counter() - t0
    report = build_phase_report(telemetry, wall_clock=wall)
    print(f"profile: scheduler(s)={','.join(config.schedulers)} load={args.load} "
          f"n={args.n} workers={args.workers} verdict={result.verdict}")
    print(report.render())
    if args.jsonl_out:
        with open(args.jsonl_out, "w") as fh:
            fh.write(phase_report_to_jsonl(report))
        print(f"wrote {args.jsonl_out}")
    if args.dashboard:
        from .viz import render_phase_report

        render_phase_report(report, args.dashboard)
        print(f"wrote {args.dashboard}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    import numpy as np

    from .experiments import synthesize_taskset
    from .runtime import ViolationPolicy
    from .sim import Platform, WallClock
    from .svc import SchedulerService, ServiceCore

    rng = np.random.default_rng(args.seed)
    taskset = synthesize_taskset(args.load, rng)
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
    from .svc import run_load_test_sync, write_loadtest_artifact

    if args.smoke:
        # The CI preset: the deterministic schedule behind the
        # BENCH_svc_loadtest gate (see benchmarks/bench_svc_loadtest.py).
        kwargs = dict(load=0.8, seed=11, horizon=4.0, shape="poisson",
                      rate=25.0, connections=4)
    else:
        kwargs = dict(
            load=args.load, seed=args.seed, horizon=args.horizon,
            shape=args.arrivals.name, shape_params=args.arrivals.params,
            rate=args.rate, connections=args.connections,
            policy=args.policy, headroom=args.headroom,
            scheduler=args.scheduler,
        )
        if args.address:
            host, _, port = args.address.rpartition(":")
            kwargs["address"] = (host or "127.0.0.1", int(port))
    report = run_load_test_sync(**kwargs)
    print(report.render())
    if args.bench:
        path = write_loadtest_artifact(report, name=args.bench_name)
        print(f"wrote {path}")
    return 0 if report.errors == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-eua",
        description="Reproduce the DATE'05 EUA* evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def workers_opt(p: argparse.ArgumentParser) -> None:
        p.add_argument("--workers", type=int, default=1,
                       help="process-pool size for the sweep (1 = serial; "
                            "results are identical at any setting)")

    def chunk_opt(p: argparse.ArgumentParser) -> None:
        p.add_argument("--chunk-size", type=int, default=None,
                       help="replications per pool task (default: auto-sized "
                            "from --workers and the batch budget; results are "
                            "identical at any setting)")

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--loads", type=float, nargs="*", help="load sweep points")
        p.add_argument("--seeds", type=int, nargs="*", help="replication seeds")
        p.add_argument("--horizon", type=float, default=DEFAULT_HORIZON)
        workers_opt(p)

    p2 = sub.add_parser("figure2", help="normalised utility/energy vs load")
    p2.add_argument("--energy", default="E1", choices=list(TABLE2_NAMES))
    p2.add_argument("--svg", help="write SVG charts to <base>_{utility,energy}.svg")
    common(p2)
    p2.set_defaults(func=_cmd_figure2)

    p3 = sub.add_parser("figure3", help="EUA* energy vs load per UAM burst size")
    p3.add_argument("--svg", help="write an SVG chart to this path")
    common(p3)
    p3.set_defaults(func=_cmd_figure3)

    pmp = sub.add_parser(
        "mp",
        help="multicore frontiers: partitioned/global EUA* on m cores",
    )
    pmp.add_argument("--energy", default="E1", choices=list(TABLE2_NAMES))
    pmp.add_argument("--cores", type=int, nargs="*",
                     help=f"core counts m (default {' '.join(map(str, MULTICORE_CORES))})")
    pmp.add_argument("--modes", nargs="+", default=["partitioned", "global"],
                     choices=["partitioned", "global"],
                     help="execution models to sweep")
    pmp.add_argument("--schedulers", nargs="+", default=list(MULTICORE_SCHEDULERS),
                     help="registry schedulers (must include the EDF normaliser)")
    pmp.add_argument("--partition-strategy", default="wfd", choices=["wfd", "ffd"],
                     help="bin-packing heuristic for partitioned mode")
    pmp.add_argument("--active-power", type=float, default=0.0,
                     help="per-active-core uncore power (W); 0 keeps the "
                          "m=1 column bit-identical to figure2")
    pmp.add_argument("--smoke", action="store_true",
                     help="tiny m=2 campaign (both modes, one load, one seed) "
                          "for CI smoke testing; ignores the sweep options")
    pmp.add_argument("--svg", help="write SVG charts to <base>_{utility,energy}.svg")
    common(pmp)
    pmp.set_defaults(func=_cmd_mp)

    ps = sub.add_parser("simulate", help="one comparison run on a synthesised workload")
    ps.add_argument("--load", type=float, default=1.0)
    ps.add_argument("--energy", default="E1", choices=list(TABLE2_NAMES))
    ps.add_argument("--tuf", default="step", choices=["step", "linear"])
    ps.add_argument("--nu", type=float, default=1.0)
    ps.add_argument("--rho", type=float, default=0.96)
    ps.add_argument("--arrivals", default=_arrival_shape_arg("periodic"),
                    type=_arrival_shape_arg, metavar="NAME[:K=V,...]",
                    help="arrival shape from the registry (see `repro arrivals`),"
                         " e.g. poisson, nhpp-diurnal:peak_frac=0.25")
    ps.add_argument("--horizon", type=float, default=DEFAULT_HORIZON)
    ps.add_argument("--seed", type=int, default=11)
    ps.add_argument("--schedulers", nargs="+",
                    default=["EUA*", "LA-EDF", "EDF"])
    workers_opt(ps)
    ps.set_defaults(func=_cmd_simulate)

    pb = sub.add_parser("bound", help="compare EUA* energy to the YDS lower bound")
    pb.add_argument("--load", type=float, default=0.6)
    pb.add_argument("--energy", default="E1", choices=list(TABLE2_NAMES))
    pb.add_argument("--horizon", type=float, default=2.0)
    pb.add_argument("--seed", type=int, default=11)
    pb.set_defaults(func=_cmd_bound)

    pa = sub.add_parser("ablate", help="run a named ablation")
    pa.add_argument("which", choices=["dvs", "fopt", "dvs-method", "dasa"])
    pa.add_argument("--seeds", type=int, nargs="*")
    pa.add_argument("--horizon", type=float, default=DEFAULT_HORIZON)
    workers_opt(pa)
    pa.set_defaults(func=_cmd_ablate)

    pv = sub.add_parser("validate", help="audit a traced run with the validator")
    pv.add_argument("--scheduler", default="EUA*")
    pv.add_argument("--load", type=float, default=0.8)
    pv.add_argument("--energy", default="E1", choices=list(TABLE2_NAMES))
    pv.add_argument("--horizon", type=float, default=2.0)
    pv.add_argument("--seed", type=int, default=11)
    pv.set_defaults(func=_cmd_validate)

    px = sub.add_parser("sensitivity", help="parameter-sensitivity sweeps")
    px.add_argument("which", choices=["rho", "size", "ladder"])
    px.add_argument("--seeds", type=int, nargs="*")
    px.add_argument("--horizon", type=float, default=DEFAULT_HORIZON)
    workers_opt(px)
    px.set_defaults(func=_cmd_sensitivity)

    def obs_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--scheduler", default="EUA*")
        p.add_argument("--load", type=float, default=0.8)
        p.add_argument("--energy", default="E1", choices=list(TABLE2_NAMES))
        p.add_argument("--horizon", type=float, default=2.0)
        p.add_argument("--seed", type=int, default=11)

    ptr = sub.add_parser("trace", help="dump one run's structured event trace")
    obs_common(ptr)
    ptr.add_argument("--jsonl", action="store_true",
                     help="emit the execution trace's segments as JSONL "
                          "(Trace.from_jsonl round-trips it; events are in "
                          "--decisions)")
    ptr.add_argument("--decisions", action="store_true",
                     help="emit the scheduler decision log as JSONL instead")
    ptr.add_argument("--out", help="write JSONL to this path instead of stdout")
    ptr.add_argument("--limit", type=int, default=20,
                     help="decision events shown in the human-readable view "
                          "(0 shows all)")
    ptr.set_defaults(func=_cmd_trace)

    pck = sub.add_parser("check", help="audit one run with the invariant checker, "
                                       "or replay fuzz-corpus cases")
    obs_common(pck)
    pck.add_argument("--arrivals", default=_arrival_shape_arg("periodic"),
                     type=_arrival_shape_arg, metavar="NAME[:K=V,...]",
                     help="arrival shape from the registry (see `repro arrivals`)")
    pck.add_argument("--tuf", default="step", choices=["step", "linear"])
    pck.add_argument("--corpus",
                     help="replay a corpus case file (or every *.json in a "
                          "directory) instead of synthesising a workload")
    pck.set_defaults(func=_cmd_check)

    pfz = sub.add_parser("fuzz", help="differential scenario fuzzer over the "
                                      "scheduler zoo")
    pfz.add_argument("--budget", type=int, default=100,
                     help="number of scenarios (deterministic in --seed)")
    pfz.add_argument("--seed", type=int, default=0)
    pfz.add_argument("--corpus-dir", default="tests/corpus",
                     help="where minimized failing cases are written")
    pfz.add_argument("--no-corpus", action="store_true",
                     help="do not write corpus files")
    pfz.add_argument("--no-shrink", action="store_true",
                     help="save failing workloads without minimizing them")
    pfz.add_argument("--verbose", action="store_true",
                     help="log findings as they occur")
    pfz.add_argument("--registry-shapes", action="store_true",
                     help="stratify scenarios over every spec-constructible "
                          "arrival shape in the registry instead of the "
                          "legacy four modes")
    pfz.set_defaults(func=_cmd_fuzz)

    def dashboard_opt(p: argparse.ArgumentParser) -> None:
        p.add_argument("--dashboard",
                       help="write the SVG time-attribution dashboard to this path")

    pob = sub.add_parser("obs", help="run with metrics + phase spans and summarise")
    obs_common(pob)
    pob.add_argument("--repeats", type=int, default=1,
                     help="repetitions merged into one registry (seed, seed+1, ...)")
    dashboard_opt(pob)
    pob.set_defaults(func=_cmd_obs)

    pst = sub.add_parser(
        "stats",
        help="Monte-Carlo assurance campaign: replicate, pool, and verify {nu, rho}",
    )
    pst.add_argument("--load", type=float, default=0.8)
    pst.add_argument("--energy", default="E1", choices=list(TABLE2_NAMES))
    pst.add_argument("--horizon", type=float, default=2.0)
    pst.add_argument("--seed", type=int, default=11,
                     help="base seed; replication k uses seed + k")
    pst.add_argument("-n", "--n", type=int, default=200, dest="n",
                     help="number of independent replications")
    pst.add_argument("--schedulers", nargs="+", default=["EUA*"])
    pst.add_argument("--tuf", default="step", choices=["step", "linear"])
    pst.add_argument("--nu", type=float, default=1.0)
    pst.add_argument("--rho", type=float, default=0.96)
    pst.add_argument("--arrivals", default=_arrival_shape_arg("periodic"),
                     type=_arrival_shape_arg, metavar="NAME[:K=V,...]",
                     help="arrival shape from the registry (see `repro arrivals`)")
    pst.add_argument("--confidence", type=float, default=0.95,
                     help="two-sided Wilson interval coverage in the report")
    pst.add_argument("--early-stop", action="store_true",
                     help="stop once every {nu, rho} is decided at the "
                          "stop confidence")
    pst.add_argument("--min-replications", type=int, default=50,
                     help="floor before the early-stop rule may fire")
    pst.add_argument("--stop-confidence", type=float, default=0.999,
                     help="decision confidence while peeking (stricter than "
                          "--confidence)")
    pst.add_argument("--check-every", type=int, default=25,
                     help="replications per batch between early-stop checks")
    pst.add_argument("--cores", type=int, default=1,
                     help="processor count m; m > 1 runs the multicore engine "
                          "(workload demand scales to load × m)")
    pst.add_argument("--mp-mode", default="partitioned",
                     choices=["partitioned", "global"],
                     help="multicore execution model when --cores > 1")
    pst.add_argument("--partition-strategy", default="wfd",
                     choices=["wfd", "ffd"],
                     help="bin-packing heuristic for partitioned mode")
    pst.add_argument("--cache-dir",
                     help="content-addressed run cache; re-runs load hits "
                          "instead of re-simulating")
    pst.add_argument("--spans", action="store_true",
                     help="trace phase spans and print the PhaseReport table "
                          "(also implied by --dashboard)")
    dashboard_opt(pst)
    workers_opt(pst)
    chunk_opt(pst)
    pst.set_defaults(func=_cmd_stats)

    pth = sub.add_parser(
        "threshold",
        help="locate the utilization phase transition per scheduler x "
             "arrival shape (coarse sweep + bisection refinement)",
    )
    pth.add_argument("--smoke", action="store_true",
                     help="the CI mini-sweep (EUA* vs EDF on nhpp-diurnal "
                          "and flash-crowd); ignores the sweep options")
    pth.add_argument("--schedulers", nargs="+", default=["EUA*", "EDF"])
    pth.add_argument("--shapes", nargs="+",
                     default=["nhpp-diurnal", "flash-crowd"],
                     metavar="NAME[:K=V,...]",
                     help="arrival shapes from the registry (see "
                          "`repro arrivals`)")
    pth.add_argument("--load-range", type=float, nargs=2, default=[0.5, 4.5],
                     metavar=("LO", "HI"),
                     help="nominal synthesis load range to sweep (UAM "
                          "thinning shifts internet-shape transitions to "
                          "~3-4 nominal)")
    pth.add_argument("--points", type=int, default=9,
                     help="coarse grid points across the load range")
    pth.add_argument("--refine", type=int, default=3,
                     help="bisection iterations inside the crossing bracket")
    pth.add_argument("-n", "--n", type=int, default=24, dest="n",
                     help="replications per sweep point")
    pth.add_argument("--seed", type=int, default=11,
                     help="base seed; replication k uses seed + k")
    pth.add_argument("--horizon", type=float, default=2.0)
    pth.add_argument("--confidence", type=float, default=0.95,
                     help="Wilson interval coverage for the confidence band")
    pth.add_argument("--tuf", default="step", choices=["step", "linear"])
    pth.add_argument("--nu", type=float, default=1.0)
    pth.add_argument("--rho", type=float, default=0.96)
    pth.add_argument("--energy", default="E1", choices=list(TABLE2_NAMES))
    pth.add_argument("--cache-dir",
                     help="content-addressed run cache shared with `stats`")
    pth.add_argument("--bench", action="store_true",
                     help="write the BENCH_<name>.json gate artifact "
                          "(to $REPRO_BENCH_ARTIFACTS or benchmarks/artifacts/)")
    pth.add_argument("--bench-name", default="threshold_smoke",
                     help="artifact name for --bench")
    pth.add_argument("--svg", help="write the phase-diagram SVG to this path")
    pth.add_argument("--verbose", action="store_true",
                     help="log each campaign evaluation as it completes")
    workers_opt(pth)
    chunk_opt(pth)
    pth.set_defaults(func=_cmd_threshold)

    sub.add_parser(
        "arrivals",
        help="list registered arrival shapes and their spec-relative defaults",
    ).set_defaults(func=_cmd_arrivals)

    ppr = sub.add_parser(
        "profile",
        help="run a small campaign with span tracing and print where the "
             "wall-clock went",
    )
    ppr.add_argument("--load", type=float, default=0.8)
    ppr.add_argument("--energy", default="E1", choices=list(TABLE2_NAMES))
    ppr.add_argument("--horizon", type=float, default=1.0)
    ppr.add_argument("--seed", type=int, default=11,
                     help="base seed; replication k uses seed + k")
    ppr.add_argument("-n", "--n", type=int, default=16, dest="n",
                     help="number of replications to profile over")
    ppr.add_argument("--schedulers", nargs="+", default=["EUA*"])
    ppr.add_argument("--cache-dir",
                     help="content-addressed run cache (probes show up as "
                          "cache hit rate)")
    ppr.add_argument("--jsonl-out",
                     help="write the PhaseReport as versioned JSONL to this path")
    dashboard_opt(ppr)
    workers_opt(ppr)
    chunk_opt(ppr)
    ppr.set_defaults(func=_cmd_profile)

    pt = sub.add_parser("theorems", help="verify the timeliness theorems")
    pt.add_argument("--load", type=float, default=0.6)
    pt.set_defaults(func=_cmd_theorems)

    prt = sub.add_parser(
        "runtime",
        help="static vs adaptive EUA* under demand drift or UAM bursts",
    )
    prt.add_argument("--scenario", choices=["drift", "uam-burst"], default="drift")
    prt.add_argument("--seed", type=int, default=11)
    prt.add_argument("--load", type=float, default=0.9)
    prt.add_argument("--horizon", type=float, default=2.0)
    prt.add_argument("--policy", choices=["shed", "defer", "admit-and-flag"],
                     default="shed", help="UAM violation policy")
    prt.add_argument("--detector", choices=["zscore", "cusum"], default="zscore")
    prt.add_argument("--drift-threshold", type=float, default=4.0,
                     help="z threshold (zscore) or decision level h (cusum)")
    prt.add_argument("--min-samples", type=int, default=8)
    prt.add_argument("--headroom", type=float, default=1.0,
                     help="admission capacity derating (>= 1)")
    prt.add_argument("--drift-at", type=float, default=0.3,
                     help="drift onset as a fraction of the horizon")
    prt.add_argument("--drift-factor", type=float, default=2.0,
                     help="true-demand scale after onset (drift scenario)")
    prt.add_argument("--burst-factor", type=int, default=2,
                     help="simultaneous copies per arrival (uam-burst scenario)")
    prt.set_defaults(func=_cmd_runtime)

    def svc_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--load", type=float, default=0.8,
                       help="synthesis load of the hosted task set")
        p.add_argument("--seed", type=int, default=11)
        p.add_argument("--energy", default="E1", choices=list(TABLE2_NAMES))
        p.add_argument("--scheduler", default="EUA*")
        p.add_argument("--policy", default="shed",
                       choices=["shed", "defer", "admit-and-flag"],
                       help="UAM violation policy at ingestion")
        p.add_argument("--headroom", type=float, default=1.0,
                       help="admission capacity derating (>= 1)")
        p.add_argument("--rate", type=float, default=1.0,
                       help="clock rate: emulated seconds per wall second")

    psv = sub.add_parser(
        "serve",
        help="run the asyncio scheduler service (HTTP ingestion through "
             "UAM compliance + admission control, JSONL decision stream)",
    )
    svc_common(psv)
    psv.add_argument("--host", default="127.0.0.1")
    psv.add_argument("--port", type=int, default=8787,
                     help="listen port (0 picks an ephemeral port)")
    psv.set_defaults(func=_cmd_serve)

    plt = sub.add_parser(
        "loadtest",
        help="replay arrival-registry traffic against a service and "
             "report jobs/s, shed rate and deadline-hit rate",
    )
    svc_common(plt)
    plt.set_defaults(rate=25.0)
    plt.add_argument("--horizon", type=float, default=4.0,
                     help="emulated seconds of arrivals to replay")
    plt.add_argument("--arrivals", default=_arrival_shape_arg("poisson"),
                     type=_arrival_shape_arg, metavar="NAME[:K=V,...]",
                     help="arrival shape from the registry (see "
                          "`repro arrivals`)")
    plt.add_argument("--connections", type=int, default=4,
                     help="persistent loopback HTTP connections")
    plt.add_argument("--address", metavar="HOST:PORT",
                     help="target an already-running service instead of "
                          "spinning one in-process")
    plt.add_argument("--smoke", action="store_true",
                     help="the deterministic CI preset (ignores the "
                          "workload options)")
    plt.add_argument("--bench", action="store_true",
                     help="write the BENCH_<name>.json gate artifact "
                          "(to $REPRO_BENCH_ARTIFACTS or benchmarks/artifacts/)")
    plt.add_argument("--bench-name", default="svc_loadtest",
                     help="artifact name for --bench")
    plt.set_defaults(func=_cmd_loadtest)

    sub.add_parser("table1", help="print the Table 1 settings").set_defaults(func=_cmd_table1)
    sub.add_parser("table2", help="print the Table 2 energy models").set_defaults(func=_cmd_table2)
    sub.add_parser("schedulers", help="list registered policies").set_defaults(
        func=_cmd_schedulers
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
