"""Load-replay harness: feed a service from the arrival registry.

Builds a deterministic arrival schedule for a synthesized task set from
any registered arrival shape (``poisson``, ``nhpp-diurnal``,
``flash-crowd``, …), compresses it onto the wall clock by
the service's rate factor, and replays it over persistent loopback HTTP
connections.  The resulting :class:`LoadReport` carries the service
qualities the PR 10 acceptance gate cares about: sustained
submissions/s, shed rate, deadline-hit rate, and the wall-clock drift
the service accumulated.

The harness is stdlib-only on the client side (``asyncio`` +
``open_connection``); it can target an external address or spin an
in-process :class:`~repro.svc.service.SchedulerService` on an ephemeral
port (the default, used by the CI smoke job and the bench gate).
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..arrivals import create_arrival_generator
from ..experiments import synthesize_taskset
from ..runtime import ViolationPolicy
from ..sched import make_scheduler
from ..sim import Platform, WallClock
from ..sim.task import TaskSet
from .core import ServiceCore
from .service import SchedulerService

__all__ = [
    "LoadReport",
    "build_schedule",
    "run_load_test",
    "run_load_test_sync",
    "SMOKE_PRESET",
]

#: The deterministic replay behind ``repro loadtest --smoke`` and the
#: ``BENCH_svc_loadtest`` gate (``benchmarks/bench_svc_loadtest.py``).
SMOKE_PRESET: Dict[str, object] = dict(
    load=0.8, seed=11, horizon=4.0, shape="poisson", rate=25.0, connections=4
)


@dataclass
class LoadReport:
    """Outcome of one load-replay run against a service."""

    shape: str
    rate: float
    connections: int
    wall_s: float
    #: Client-side verdict tallies (HTTP responses).
    submitted: int
    accepted: int
    backpressured: int
    errors: int
    #: Service-side lifecycle counters (``/stats`` after quiescence).
    stats: Dict[str, object] = field(default_factory=dict)

    @property
    def jobs_per_s(self) -> float:
        return self.submitted / self.wall_s if self.wall_s > 0 else 0.0

    @property
    def shed_rate(self) -> float:
        """Submissions the service refused or evicted, as a fraction."""
        if not self.submitted:
            return 0.0
        dropped = sum(
            int(self.stats.get(key, 0))
            for key in ("shed_uam", "rejected", "evicted")
        )
        return dropped / self.submitted

    @property
    def deadline_hit_rate(self) -> float:
        """Completions that met their critical time, over admissions."""
        admitted = int(self.stats.get("admitted", 0))
        if not admitted:
            return 0.0
        return int(self.stats.get("deadline_hits", 0)) / admitted

    def metrics(self) -> Dict[str, float]:
        """Flat metric dict for the BENCH artifact gate."""
        drift = self.stats.get("drift", {}) or {}
        return {
            "svc_jobs_per_s": self.jobs_per_s,
            "svc_shed_rate": self.shed_rate,
            "svc_deadline_hit_rate": self.deadline_hit_rate,
            "svc_completed": float(self.stats.get("completed", 0)),
            "svc_wall_s": self.wall_s,
            "svc_max_lag_s": float(drift.get("max_lag_s", 0.0)),
        }

    def directions(self) -> Dict[str, str]:
        """Gate directions: shedding, wall time and clock lag regress
        upward; throughput, deadline hits and completions downward."""
        lower = ("svc_shed_rate", "svc_wall_s", "svc_max_lag_s")
        return {key: "lower" if key in lower else "higher" for key in self.metrics()}

    def meta(self) -> Dict[str, object]:
        """Replay provenance recorded beside the BENCH artifact's metrics."""
        return {"shape": self.shape, "rate": self.rate,
                "connections": self.connections, "submitted": self.submitted}

    def render(self) -> str:
        s = self.stats
        lines = [
            f"load replay: shape={self.shape} rate={self.rate:g}x "
            f"connections={self.connections}",
            f"  submitted {self.submitted} in {self.wall_s:.3f}s wall "
            f"-> {self.jobs_per_s:.0f} jobs/s sustained",
            f"  admitted {s.get('admitted', 0)}  deferred {s.get('deferred', 0)}  "
            f"shed(uam) {s.get('shed_uam', 0)}  rejected {s.get('rejected', 0)}  "
            f"evicted {s.get('evicted', 0)}",
            f"  completed {s.get('completed', 0)}  expired {s.get('expired', 0)}  "
            f"aborted {s.get('aborted', 0)}  deadline hits {s.get('deadline_hits', 0)}",
            f"  shed rate {self.shed_rate:.3f}  "
            f"deadline-hit rate {self.deadline_hit_rate:.3f}",
        ]
        drift = s.get("drift") or {}
        if drift:
            lines.append(
                f"  clock drift: waits {drift.get('waits', 0)}  "
                f"mean lag {float(drift.get('mean_lag_s', 0.0)) * 1e3:.3f}ms  "
                f"max lag {float(drift.get('max_lag_s', 0.0)) * 1e3:.3f}ms"
            )
        return "\n".join(lines)


def build_schedule(
    taskset: TaskSet,
    shape: str = "poisson",
    horizon: float = 2.0,
    seed: int = 11,
    params: Sequence[Tuple[str, object]] = (),
) -> List[Tuple[float, str]]:
    """Deterministic merged arrival schedule ``[(time, task name), …]``.

    One registry generator per task, parameterised off the task's
    declared UAM envelope, all drawing from a single seeded stream so
    the schedule is a pure function of ``(taskset, shape, horizon,
    seed, params)``.
    """
    rng = np.random.default_rng(seed)
    schedule: List[Tuple[float, str]] = []
    for task in taskset:
        generator = create_arrival_generator(shape, spec=task.uam, **dict(params))
        schedule.extend((t, task.name) for t in generator.generate(horizon, rng))
    schedule.sort()
    return schedule


# ----------------------------------------------------------------------
# Minimal persistent HTTP client
# ----------------------------------------------------------------------
class _Connection:
    def __init__(self, host: str, port: int):
        self.host, self.port = host, port
        self.reader: Optional[asyncio.StreamReader] = None
        self.writer: Optional[asyncio.StreamWriter] = None

    async def open(self) -> None:
        self.reader, self.writer = await asyncio.open_connection(self.host, self.port)

    async def request(self, method: str, path: str, payload: Optional[object] = None):
        body = json.dumps(payload).encode() if payload is not None else b""
        self.writer.write(
            (
                f"{method} {path} HTTP/1.1\r\nHost: {self.host}\r\n"
                f"Content-Length: {len(body)}\r\n\r\n"
            ).encode() + body
        )
        await self.writer.drain()
        status_line = await self.reader.readline()
        status = int(status_line.split()[1])
        length = 0
        while True:
            header = await self.reader.readline()
            if header in (b"\r\n", b"\n", b""):
                break
            name, _, value = header.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                length = int(value.strip())
        data = await self.reader.readexactly(length) if length else b""
        return status, data

    async def close(self) -> None:
        if self.writer is not None:
            self.writer.close()
            try:
                await self.writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass


async def _replay_worker(
    conn: _Connection,
    items: List[Tuple[float, str]],
    t0: float,
    tally: Dict[str, int],
) -> None:
    loop = asyncio.get_running_loop()
    for deadline, task_name in items:
        delay = t0 + deadline - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        status, _data = await conn.request("POST", "/jobs", {"task": task_name})
        tally["submitted"] += 1
        if status == 200:
            tally["accepted"] += 1
        elif status == 429:
            tally["backpressured"] += 1
        else:
            tally["errors"] += 1


async def _await_quiescence(conn: _Connection, timeout: float = 10.0) -> dict:
    """Poll ``/stats`` until the service drains (or timeout); return the
    final snapshot."""
    loop = asyncio.get_running_loop()
    deadline = loop.time() + timeout
    while True:
        _status, data = await conn.request("GET", "/stats")
        stats = json.loads(data)
        if (
            stats.get("ready_depth", 0) == 0
            and stats.get("deferred_pending", 0) == 0
        ) or loop.time() >= deadline:
            return stats
        await asyncio.sleep(0.02)


async def run_load_test(
    load: float = 0.8,
    seed: int = 11,
    horizon: float = 2.0,
    shape: str = "poisson",
    shape_params: Sequence[Tuple[str, object]] = (),
    rate: float = 50.0,
    connections: int = 4,
    policy: str = "shed",
    headroom: float = 1.0,
    scheduler: str = "EUA*",
    address: Optional[Tuple[str, int]] = None,
) -> LoadReport:
    """Replay ``horizon`` emulated seconds of arrivals at ``rate``-times
    wall speed against a service.

    With ``address=None`` (the default) an in-process service is
    started on an ephemeral loopback port and shut down afterwards —
    the CI smoke path.  Otherwise the replay targets the given
    ``(host, port)`` and only needs the service to be reachable.
    """
    taskset = synthesize_taskset(load, np.random.default_rng(seed))
    schedule = build_schedule(taskset, shape, horizon, seed, shape_params)
    # Compress emulated arrival instants onto the wall clock.
    wall_schedule = [(t / rate, name) for t, name in schedule]

    service: Optional[SchedulerService] = None
    if address is None:
        core = ServiceCore(
            taskset,
            Platform(),
            scheduler=make_scheduler(scheduler),
            policy=ViolationPolicy.parse(policy),
            headroom=headroom,
        )
        service = SchedulerService(core, clock=WallClock(rate=rate))
        await service.start()
        host, port = service.host, service.port
    else:
        host, port = address

    conns = [_Connection(host, port) for _ in range(max(1, connections))]
    try:
        for conn in conns:
            await conn.open()
        tally = {"submitted": 0, "accepted": 0, "backpressured": 0, "errors": 0}
        shards: List[List[Tuple[float, str]]] = [[] for _ in conns]
        for i, item in enumerate(wall_schedule):
            shards[i % len(conns)].append(item)
        loop = asyncio.get_running_loop()
        t_start = loop.time()
        await asyncio.gather(
            *(_replay_worker(c, shard, t_start, tally)
              for c, shard in zip(conns, shards))
        )
        wall_s = loop.time() - t_start
        stats = await _await_quiescence(conns[0])
    finally:
        for conn in conns:
            await conn.close()
        if service is not None:
            await service.stop()

    return LoadReport(
        shape=shape,
        rate=rate,
        connections=len(conns),
        wall_s=wall_s,
        submitted=tally["submitted"],
        accepted=tally["accepted"],
        backpressured=tally["backpressured"],
        errors=tally["errors"],
        stats=stats,
    )


def run_load_test_sync(**kwargs) -> LoadReport:
    """Blocking wrapper around :func:`run_load_test`."""
    return asyncio.run(run_load_test(**kwargs))

