"""Per-layer tracing for the benchmark, installed from outside ``repro``.

Nothing under ``src/`` knows about this module.  A traced run patches
public functions and methods of the package with thin wrappers that
open and close spans on a :class:`LayerTracer`, and hands the tracer to
the simulation engine as the ``spans`` sink of a public
:class:`repro.obs.Observer` (the engine drives any object with
``enter``/``exit``).  :func:`install` returns the function that puts
every original back.

Span names start with their layer (``engine.``/``sim.`` for
``repro.sim``, ``core.``, ``sched.``, ``mp.``, ``svc.``, ``runtime.``,
``obs.``); ``bench.`` spans are the benchmark's own roots, whose self
time is the part of a run no layer accounts for.
"""

from __future__ import annotations

import json
import os
import statistics
from array import array
from pathlib import Path
from time import perf_counter, process_time
from typing import Callable, Dict, Iterable, List, Optional, Tuple

#: Raw spans kept per process for ``spans.jsonl``; the aggregates count
#: every span, the raw log stops here so memory stays bounded.
RAW_CAP = 20000

#: Span-name prefix -> layer (repro module) used for the share metrics.
LAYERS: Tuple[Tuple[str, str], ...] = (
    ("engine.", "sim"),
    ("sim.", "sim"),
    ("core.", "core"),
    ("sched.", "sched"),
    ("mp.", "mp"),
    ("svc.wait", "svc_wait"),
    ("svc.", "svc"),
    ("runtime.", "runtime"),
    ("obs.", "obs"),
    ("campaign", "campaign"),
    ("pool.", "campaign"),
)
SHARE_LAYERS = ("sim", "core", "sched", "mp", "svc", "svc_wait", "runtime", "obs")


def layer_of(name: str) -> Optional[str]:
    for prefix, layer in LAYERS:
        if name.startswith(prefix):
            return layer
    return None


class LayerTracer:
    """Stack of open spans with per-name aggregates and a capped raw log.

    ``exit`` charges a span's duration to its parent, so a name's *self*
    time excludes its children and the self times of one process tile
    the duration of its root spans.  ``request`` tags raw spans so the
    spans of one request (one simulated trace, one HTTP submission)
    share an identifier.
    """

    def __init__(self, process: str = "main") -> None:
        self.process = process
        self._stack: List[list] = []
        #: name -> [count, total seconds, self seconds]
        self.totals: Dict[str, List[float]] = {}
        #: Summed duration of parentless spans.
        self.root_total = 0.0
        self.counters: Dict[str, float] = {}
        #: Per-call durations of the spans a percentile is reported for.
        self.samples: Dict[str, array] = {"core.eua_decide": array("d")}
        self.ready_sizes = array("l")
        self.raw: List[tuple] = []
        self.raw_dropped = 0
        self.request: Optional[object] = None
        self._next_id = 0
        #: Directory a forked worker writes its aggregates to on exit.
        self.dump_dir: Optional[Path] = None

    # -- the SpanTracer interface the engine drives --------------------
    def enter(self, name: str) -> None:
        self._stack.append([name, perf_counter(), 0.0, self._next_id])
        self._next_id += 1

    def exit(self) -> None:
        name, start, child, span_id = self._stack.pop()
        end = perf_counter()
        duration = end - start
        if self._stack:
            parent = self._stack[-1]
            parent[2] += duration
            parent_id = parent[3]
        else:
            self.root_total += duration
            parent_id = None
        agg = self.totals.get(name)
        if agg is None:
            agg = self.totals[name] = [0, 0.0, 0.0]
        agg[0] += 1
        agg[1] += duration
        agg[2] += duration - child
        samples = self.samples.get(name)
        if samples is not None:
            samples.append(duration)
        if len(self.raw) < RAW_CAP:
            self.raw.append((span_id, parent_id, name, start, end, self.request))
        else:
            self.raw_dropped += 1

    def count(self, name: str, amount: float = 1.0) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + amount

    # -- serialisation ---------------------------------------------------
    def snapshot(self) -> dict:
        """JSON-ready aggregates (what a worker or server process dumps)."""
        return {
            "process": self.process,
            "totals": self.totals,
            "root_total": self.root_total,
            "counters": self.counters,
            "samples": {k: list(v) for k, v in self.samples.items()},
            "ready_sizes": list(self.ready_sizes),
            "raw": self.raw,
            "raw_dropped": self.raw_dropped,
        }

    def absorb(self, snap: dict) -> None:
        """Fold another process's :meth:`snapshot` into these aggregates."""
        for name, (count, total, self_s) in snap["totals"].items():
            agg = self.totals.setdefault(name, [0, 0.0, 0.0])
            agg[0] += count
            agg[1] += total
            agg[2] += self_s
        for name, value in snap["counters"].items():
            self.count(name, value)
        for name, values in snap["samples"].items():
            self.samples.setdefault(name, array("d")).extend(values)
        self.ready_sizes.extend(snap["ready_sizes"])

    def total(self, name: str) -> float:
        return self.totals.get(name, (0, 0.0, 0.0))[1]

    def calls(self, name: str) -> int:
        return int(self.totals.get(name, (0, 0.0, 0.0))[0])

    def self_time(self, name: str) -> float:
        return self.totals.get(name, (0, 0.0, 0.0))[2]


# ----------------------------------------------------------------------
# Forked pool workers
# ----------------------------------------------------------------------
def _after_fork_in_child(tracer: LayerTracer) -> None:
    """A pool worker forked while the wrappers are installed inherits
    them and a copy of the tracer: clear the copy in place (the
    wrappers hold a reference to it) and dump it when the worker exits."""
    if tracer.dump_dir is None:
        return
    from multiprocessing import util

    fresh = LayerTracer(process=f"worker-{os.getpid()}")
    fresh.dump_dir = tracer.dump_dir
    tracer.__dict__.update(fresh.__dict__)
    util.Finalize(tracer, _dump_worker, args=(tracer,), exitpriority=100)


def _dump_worker(tracer: LayerTracer) -> None:
    path = tracer.dump_dir / f"{tracer.process}.json"
    path.write_text(json.dumps(tracer.snapshot()))


def read_worker_dumps(directory: Path) -> List[dict]:
    return [json.loads(p.read_text()) for p in sorted(directory.glob("worker-*.json"))]


# ----------------------------------------------------------------------
# Wrappers
# ----------------------------------------------------------------------
def _slug(name: str) -> str:
    return "".join(c if c.isalnum() else "_" for c in name.lower()).strip("_")


def _spanned(tracer: LayerTracer, name: str, fn: Callable) -> Callable:
    def wrapper(*args, **kwargs):
        tracer.enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.exit()

    wrapper.__wrapped__ = fn
    return wrapper


def install(tracer: LayerTracer, service: bool = False) -> Callable[[], None]:
    """Wrap the package's public entry points with spans on ``tracer``.

    ``service=True`` also instruments the HTTP service (only the server
    process wants that).  With ``tracer.dump_dir`` set, pool workers
    forked while installed write their own aggregates there when they
    exit (:func:`read_worker_dumps`).  Returns the function that
    restores every original attribute.
    """
    from multiprocessing import util

    import repro.core.eua as eua_mod
    import repro.experiments.parallel as parallel_mod
    import repro.sim.runner as runner_mod
    from repro.core.feasibility import IncrementalSchedule
    from repro.mp.engine import GlobalEngine
    from repro.obs import Observer
    from repro.sched.edf import EDFStatic
    from repro.sched.pillai_shin import LAEDF
    from repro.sim.scheduler import Scheduler

    saved: List[Tuple[object, str, object]] = []

    def patch(owner: object, attr: str, new: object) -> None:
        saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    # repro.sim: every simulate() gets a spans-only Observer on this
    # tracer, so the engine's own engine.* phases land in it.
    simulate = runner_mod.simulate

    def traced_simulate(*args, **kwargs):
        if kwargs.get("observer") is None:
            observer = Observer(events=False, metrics=False)
            observer.spans = tracer
            kwargs["observer"] = observer
        tracer.enter("sim.simulate")
        try:
            return simulate(*args, **kwargs)
        finally:
            tracer.exit()

    patch(runner_mod, "simulate", traced_simulate)
    patch(parallel_mod.WorkloadSpec, "build",
          _spanned(tracer, "sim.build", parallel_mod.WorkloadSpec.build))
    patch(parallel_mod, "synthesize_taskset",
          _spanned(tracer, "sim.synthesize", parallel_mod.synthesize_taskset))
    patch(parallel_mod, "materialize",
          _spanned(tracer, "sim.materialize", parallel_mod.materialize))

    # repro.core: EUA* decisions, σ insertion probes, decideFreq and
    # the offline parameters.
    eua_decide = eua_mod.EUAStar.decide

    def traced_eua_decide(self, view):
        tracer.ready_sizes.append(len(view.ready))
        tracer.enter("core.eua_decide")
        try:
            return eua_decide(self, view)
        finally:
            tracer.exit()

    patch(eua_mod.EUAStar, "decide", traced_eua_decide)
    try_insert = IncrementalSchedule.try_insert

    def traced_try_insert(self, job):
        tracer.enter("core.sigma_try_insert")
        try:
            pos = try_insert(self, job)
        finally:
            tracer.exit()
        if pos >= 0:
            tracer.count("core.sigma_accepted")
        return pos

    patch(IncrementalSchedule, "try_insert", traced_try_insert)
    patch(eua_mod, "decide_freq", _spanned(tracer, "core.decide_freq", eua_mod.decide_freq))
    patch(eua_mod, "offline_computing",
          _spanned(tracer, "core.offline_computing", eua_mod.offline_computing))

    # repro.sched: the baselines, one span name per registry policy.
    for cls in (EDFStatic, LAEDF):
        base = vars(cls)["decide"]

        def traced_decide(self, view, _base=base):
            tracer.enter(f"sched.{_slug(self.name)}_decide")
            try:
                return _base(self, view)
            finally:
                tracer.exit()

        patch(cls, "decide", traced_decide)

    # repro.mp: the global engine and its per-core frequency hook.
    patch(GlobalEngine, "run", _spanned(tracer, "mp.global_run", GlobalEngine.run))
    patch(eua_mod.EUAStar, "decide_frequency",
          _spanned(tracer, "mp.decide_frequency", eua_mod.EUAStar.decide_frequency))
    patch(Scheduler, "decide_frequency",
          _spanned(tracer, "mp.decide_frequency", Scheduler.decide_frequency))

    if service:
        _install_service(tracer, patch)

    util.register_after_fork(tracer, _after_fork_in_child)

    def restore() -> None:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
        tracer.dump_dir = None

    return restore


def _install_service(tracer: LayerTracer, patch: Callable) -> None:
    """Spans for the service process.

    The executor coroutine only yields inside ``_wait_for_wake``, so
    every HTTP handler's synchronous work runs while ``svc.wait`` is the
    open span and nests under it; ``svc.wait``'s self time is what the
    executor spent idle, spinning, or on HTTP reads and writes.  The two
    coroutine wrappers use private names of ``SchedulerService``; that
    is the price of attributing the executor's waiting from outside.
    """
    import repro.svc.service as service_mod
    from repro.runtime import AdmissionController, UAMComplianceMonitor
    from repro.svc import SchedulerService, ServiceCore

    for attr, name in (("submit", "svc.submit"), ("decide", "svc.decide"),
                       ("advance", "svc.advance"), ("complete_if_done", "svc.complete"),
                       ("next_timer", "svc.next_timer")):
        patch(ServiceCore, attr, _spanned(tracer, name, getattr(ServiceCore, attr)))
    patch(AdmissionController, "evaluate",
          _spanned(tracer, "runtime.admission", AdmissionController.evaluate))
    patch(UAMComplianceMonitor, "check",
          _spanned(tracer, "runtime.uam_check", UAMComplianceMonitor.check))

    encode = service_mod.events_to_jsonl

    def traced_encode(log):
        tracer.enter("obs.jsonl_encode")
        try:
            text = encode(log)
        finally:
            tracer.exit()
        tracer.count("obs.stream_bytes", len(text))
        return text

    patch(service_mod, "events_to_jsonl", traced_encode)

    route = SchedulerService._route

    def traced_route(self, method, path, body):
        tracer.request = _request_id(body)
        tracer.enter("svc.route")
        try:
            return route(self, method, path, body)
        finally:
            tracer.exit()
            tracer.request = None

    patch(SchedulerService, "_route", traced_route)
    wait = SchedulerService._wait_for_wake

    async def traced_wait(self, timeout):
        tracer.enter("svc.wait")
        try:
            return await wait(self, timeout)
        finally:
            tracer.exit()

    patch(SchedulerService, "_wait_for_wake", traced_wait)
    run_executor = SchedulerService._run_executor

    async def traced_executor(self):
        cpu0 = process_time()
        tracer.enter("svc.executor")
        try:
            await run_executor(self)
        finally:
            tracer.exit()
            tracer.count("svc.executor_cpu_s", process_time() - cpu0)

    patch(SchedulerService, "_run_executor", traced_executor)


def _request_id(body: bytes) -> Optional[object]:
    if b'"rid"' not in body:
        return None
    try:
        return json.loads(body).get("rid")
    except (ValueError, AttributeError):
        return None


# ----------------------------------------------------------------------
# Reduction to the per-layer metrics
# ----------------------------------------------------------------------
def layer_shares(tracer: LayerTracer, wall: float) -> Dict[str, float]:
    """Self time of each layer as a share of ``wall``."""
    shares = {layer: 0.0 for layer in SHARE_LAYERS}
    if wall <= 0.0:
        return shares
    for name, (_count, _total, self_s) in tracer.totals.items():
        layer = layer_of(name)
        if layer in shares:
            shares[layer] += self_s / wall
    return shares


def core_metrics(tracer: LayerTracer) -> Dict[str, float]:
    """The ``core.*`` per-layer metrics (EUA* runs in every workload)."""
    decide = tracer.samples.get("core.eua_decide") or [0.0]
    sizes = tracer.ready_sizes or [0]
    attempts = tracer.calls("core.sigma_try_insert")
    return {
        "core.eua_decide_calls": tracer.calls("core.eua_decide"),
        "core.eua_decide_s": tracer.total("core.eua_decide"),
        "core.eua_decide_p50_us": statistics.median(decide) * 1e6,
        "core.ready_n_p50": statistics.median(sizes),
        "core.ready_n_max": max(sizes),
        "core.sigma_try_insert_calls": attempts,
        "core.sigma_try_insert_s": tracer.total("core.sigma_try_insert"),
        "core.sigma_accept_ratio": (
            tracer.counters.get("core.sigma_accepted", 0.0) / attempts if attempts else 0.0
        ),
        "core.decide_freq_calls": tracer.calls("core.decide_freq"),
        "core.decide_freq_s": tracer.total("core.decide_freq"),
        "core.offline_computing_s": tracer.total("core.offline_computing"),
    }


def span_table(tracer: LayerTracer, wall: float) -> Dict[str, dict]:
    """Per-span-name rows for ``layers.json``."""
    return {
        name: {
            "layer": layer_of(name) or "bench",
            "count": int(count),
            "total_s": total,
            "self_s": self_s,
            "self_share": self_s / wall if wall > 0 else 0.0,
        }
        for name, (count, total, self_s) in sorted(tracer.totals.items())
    }


def write_spans(path: Path, processes: Iterable[Tuple[str, Iterable[tuple]]]) -> int:
    """Write raw spans as JSONL (one object per span); returns the count."""
    n = 0
    with path.open("w") as fh:
        for process, raw in processes:
            for span_id, parent, name, start, end, request in raw:
                fh.write(json.dumps({
                    "process": process, "id": span_id, "parent": parent,
                    "name": name, "start": start, "end": end, "request": request,
                }) + "\n")
                n += 1
    return n
