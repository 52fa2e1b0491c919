"""SchedulerService loopback tests: HTTP ingestion, the JSONL decision
stream, lifecycle, and a small end-to-end load replay.

Everything runs against an in-process service on an ephemeral loopback
port; tests are plain sync functions wrapping ``asyncio.run`` (no
pytest-asyncio dependency).
"""

import asyncio
import json

import numpy as np
import pytest

from repro.artifacts import write_bench_artifact
from repro.experiments import synthesize_taskset
from repro.obs import EventKind, events_from_jsonl
from repro.sim import Platform, WallClock
from repro.svc import (
    SchedulerService,
    ServiceCore,
    build_schedule,
    run_load_test,
)
from repro.svc.loadgen import _Connection


def _taskset():
    return synthesize_taskset(0.8, np.random.default_rng(11))


async def _with_service(scenario, rate: float = 50.0, core=None):
    """Start a service on an ephemeral port, run ``scenario(service,
    conn)`` against it over one persistent connection, always stop."""
    service = SchedulerService(core or ServiceCore(_taskset()),
                               clock=WallClock(rate=rate))
    await service.start()
    conn = _Connection(service.host, service.port)
    try:
        await conn.open()
        return await scenario(service, conn)
    finally:
        await conn.close()
        await service.stop()


def test_ephemeral_port_and_healthz():
    async def scenario(service, conn):
        assert service.port != 0
        assert service.address == f"http://127.0.0.1:{service.port}"
        status, body = await conn.request("GET", "/healthz")
        assert status == 200
        assert json.loads(body) == {"status": "ok"}

    asyncio.run(_with_service(scenario))


def test_submit_accept_and_reject_statuses():
    """An admit is 200 and a burst past the envelope is 429.  The clock
    all but stands still, so the whole burst lands in one UAM window
    however slowly the host serves it."""
    async def scenario(service, conn):
        name = service.core.taskset[0].name
        status, body = await conn.request("POST", "/jobs", {"task": name})
        assert status == 200
        verdict = json.loads(body)
        assert verdict["status"] == "admitted"
        assert "job" in verdict
        # Burst the same task past its envelope: shed -> 429.
        saw_backpressure = False
        for _ in range(service.core.taskset[0].uam.max_arrivals + 2):
            status, body = await conn.request("POST", "/jobs", {"task": name})
            if status == 429:
                saw_backpressure = True
                assert json.loads(body)["status"] in ("shed", "rejected")
        assert saw_backpressure

    asyncio.run(_with_service(scenario, rate=1e-6))


def test_bad_submissions_are_400():
    async def scenario(service, conn):
        status, body = await conn.request("POST", "/jobs", {"task": "nope"})
        assert status == 400
        assert "unknown task" in json.loads(body)["error"]
        status, _ = await conn.request("POST", "/jobs", {"demand": 1.0})
        assert status == 400
        status, _ = await conn.request("GET", "/no/such/route")
        assert status == 404

    asyncio.run(_with_service(scenario))


def test_batch_submission_returns_per_job_verdicts():
    async def scenario(service, conn):
        names = [task.name for task in service.core.taskset[:3]]
        batch = [{"task": n} for n in names] + [{"task": "bogus"}]
        status, body = await conn.request("POST", "/jobs/batch", batch)
        assert status == 200
        verdicts = json.loads(body)
        assert len(verdicts) == len(batch)
        assert all(v["status"] in ("admitted", "deferred", "shed",
                                   "rejected", "error") for v in verdicts)
        assert verdicts[-1]["status"] == "error"

    asyncio.run(_with_service(scenario))


def test_tasks_endpoint_lists_hosted_envelopes():
    async def scenario(service, conn):
        status, body = await conn.request("GET", "/tasks")
        assert status == 200
        listed = json.loads(body)
        assert len(listed) == len(service.core.taskset)
        for entry, task in zip(listed, service.core.taskset):
            assert entry["name"] == task.name
            assert entry["a"] == task.uam.max_arrivals
            assert entry["window"] == pytest.approx(task.uam.window)

    asyncio.run(_with_service(scenario))


def test_event_stream_is_wellformed_jsonl():
    async def scenario(service, conn):
        names = [task.name for task in service.core.taskset[:4]]
        assert service.core.taskset[0].uam.max_arrivals == 1
        # The repeated first task breaks its UAM envelope and is shed.
        _, body = await conn.request("POST", "/jobs/batch",
                                     [{"task": n} for n in names + names[:1]])
        assert [v["status"] for v in json.loads(body)] == ["admitted"] * 4 + ["shed"]
        await asyncio.sleep(0.05)  # let the executor dispatch
        status, body = await conn.request("GET", "/events")
        assert status == 200
        log = events_from_jsonl(body.decode())
        # Ingestion events are stamped "svc": a feasible admit is its
        # release alone.  The arrival gate's events are the runtime's;
        # scheduler-internal events (freq decisions, ...) carry the
        # scheduler's own name.
        releases = [e for e in log.events if e.kind is EventKind.RELEASE]
        assert [(e.source, e.job) for e in releases] == [("svc", f"{n}:0") for n in names]
        assert [(e.kind, e.source, e.job) for e in log.events
                if e.kind in (EventKind.UAM_VIOLATION, EventKind.ADMISSION_DECISION)] == [
            (EventKind.UAM_VIOLATION, "runtime", f"{names[0]}:1")]
        assert all(event.source for event in log.events)
        # Pagination: `since` skips the prefix.
        n = len(log.events)
        status, body = await conn.request("GET", f"/events?since={n}")
        assert status == 200
        assert len(events_from_jsonl(body.decode()).events) <= n
        # A negative or non-integer `since` is a client error, not a
        # tail slice or the whole log.
        for bad in ("-1", "abc"):
            status, body = await conn.request("GET", f"/events?since={bad}")
            assert status == 400
            assert "since" in json.loads(body)["error"]

    asyncio.run(_with_service(scenario))


def test_stats_reports_counters_and_drift():
    async def scenario(service, conn):
        name = service.core.taskset[0].name
        await conn.request("POST", "/jobs", {"task": name})
        status, body = await conn.request("GET", "/stats")
        assert status == 200
        stats = json.loads(body)
        assert stats["submitted"] == 1
        assert stats["clock_rate"] == service.clock.rate
        assert set(stats["drift"]) == {
            "waits", "punctual", "mean_lag_s", "max_lag_s", "total_lag_s"
        }

    asyncio.run(_with_service(scenario))


def test_submitted_job_runs_to_completion():
    async def scenario(service, conn):
        name = service.core.taskset[0].name
        await conn.request("POST", "/jobs", {"task": name})
        for _ in range(100):
            _, body = await conn.request("GET", "/stats")
            stats = json.loads(body)
            if stats["completed"] or stats["expired"]:
                break
            await asyncio.sleep(0.02)
        assert stats["completed"] == 1
        assert stats["ready_depth"] == 0
        log_status, log_body = await conn.request("GET", "/events")
        kinds = [e.kind for e in events_from_jsonl(log_body.decode()).events]
        assert EventKind.DISPATCH in kinds
        assert EventKind.COMPLETE in kinds

    asyncio.run(_with_service(scenario, rate=100.0))


def test_idle_executor_charges_its_wait():
    """The executor's idle wait is idle time on the service's processor,
    charged when a submission ends it."""
    async def scenario(service, conn):
        await asyncio.sleep(0.05)  # idle: nothing submitted yet
        cpu = service.core.processor.stats
        assert cpu.idle_time == 0.0
        await conn.request("POST", "/jobs", {"task": service.core.taskset[0].name})
        for _ in range(100):
            if cpu.idle_time > 0.0:
                break
            await asyncio.sleep(0.01)
        # At rate 50 the 50 ms wall wait is >= 2.5 s of service time.
        assert cpu.idle_time >= 2.0
        assert cpu.idle_energy == pytest.approx(5.0 * cpu.idle_time)
        _, body = await conn.request("GET", "/stats")
        assert json.loads(body)["energy"] >= cpu.idle_energy > 0.0

    asyncio.run(_with_service(scenario, core=ServiceCore(_taskset(),
                                                         Platform(idle_power=5.0))))


def test_shutdown_endpoint_stops_serve_until_shutdown():
    async def scenario():
        service = SchedulerService(ServiceCore(_taskset()))
        await service.start()
        server_task = asyncio.create_task(service.serve_until_shutdown())
        conn = _Connection(service.host, service.port)
        await conn.open()
        status, body = await conn.request("POST", "/shutdown")
        assert status == 200
        assert json.loads(body) == {"status": "stopping"}
        await asyncio.wait_for(server_task, timeout=5.0)
        await conn.close()

    asyncio.run(scenario())


def test_shutdown_returns_while_a_job_executes():
    """A job that will not finish for ages keeps the executor in a long
    timed wait; the shutdown kick and stop()'s cancel then land in the
    same loop turn, and the executor must still exit."""
    async def scenario():
        service = SchedulerService(ServiceCore(_taskset()),
                                   clock=WallClock(rate=1e-6))
        await service.start()
        server_task = asyncio.create_task(service.serve_until_shutdown())
        conn = _Connection(service.host, service.port)
        await conn.open()
        name = service.core.taskset[0].name
        status, _ = await conn.request("POST", "/jobs", {"task": name, "demand": 1e9})
        assert status == 200
        await asyncio.sleep(0.05)  # the executor dispatches and waits
        assert service.core.ready
        status, _ = await conn.request("POST", "/shutdown")
        assert status == 200
        # asyncio.wait, not wait_for: a timeout must not cancel the task,
        # since stop() absorbs that cancel and would then return anyway.
        done, _ = await asyncio.wait({server_task}, timeout=5.0)
        if not done:  # leave nothing running behind a failure
            service._executor.cancel()
            await server_task
        await conn.close()
        assert server_task in done, "serve_until_shutdown() hung after POST /shutdown"

    asyncio.run(scenario())


async def _raw_exchange(service, raw: bytes) -> bytes:
    """Send ``raw`` on a fresh socket and read until the server closes."""
    reader, writer = await asyncio.open_connection(service.host, service.port)
    try:
        writer.write(raw)
        await writer.drain()
        return await asyncio.wait_for(reader.read(), timeout=5.0)
    finally:
        writer.close()


@pytest.mark.parametrize("raw, status", [
    (b"POST /jobs HTTP/1.1\r\nContent-Length: 99999999\r\n\r\n{}", b"413"),
    (b"POST /jobs HTTP/1.1\r\nContent-Length: ten\r\n\r\n{}", b"400"),
    (b"POST /jobs HTTP/1.1\r\nContent-Length: -5\r\n\r\n{}", b"400"),
    (b"GARBAGE\r\n\r\n", b"400"),
])
def test_malformed_requests_are_answered_and_closed(raw, status):
    async def scenario(service, conn):
        # A trailing second request must not be parsed: the server
        # answers the bad one and closes (reader.read() sees EOF).
        reply = await _raw_exchange(service, raw + b"GET /healthz HTTP/1.1\r\n\r\n")
        assert reply.startswith(b"HTTP/1.1 " + status)
        assert reply.count(b"HTTP/1.1") == 1
        assert b"Connection: close" in reply
        assert "error" in json.loads(reply.split(b"\r\n\r\n", 1)[1])
        # The service itself is unharmed.
        status_ok, _ = await conn.request("GET", "/healthz")
        assert status_ok == 200

    asyncio.run(_with_service(scenario))


def test_batch_with_malformed_element_admits_nothing():
    async def scenario(service, conn):
        name = service.core.taskset[0].name
        other = service.core.taskset[1].name
        for bad in ({}, 7, {"task": name, "demand": "lots"}, {"task": other, "demand": "5"},
                    {"task": other, "demand": 0}, {"task": other, "demand": -1.5},
                    {"task": other, "demand": True}, {"task": other, "demand": 1e400}):
            status, body = await conn.request("POST", "/jobs/batch", [{"task": name}, bad])
            assert status == 400
            assert "error" in json.loads(body)
        _, body = await conn.request("GET", "/stats")
        assert json.loads(body)["submitted"] == 0

    asyncio.run(_with_service(scenario))


# ----------------------------------------------------------------------
# Load-replay harness
# ----------------------------------------------------------------------
def test_build_schedule_is_deterministic():
    taskset = _taskset()
    a = build_schedule(taskset, "poisson", horizon=1.0, seed=7)
    b = build_schedule(taskset, "poisson", horizon=1.0, seed=7)
    assert a == b
    assert a == sorted(a)
    assert {name for _t, name in a} <= {task.name for task in taskset}
    assert build_schedule(taskset, "poisson", horizon=1.0, seed=8) != a


def test_small_load_replay_end_to_end(tmp_path):
    report = asyncio.run(run_load_test(
        load=0.8, seed=11, horizon=0.5, shape="poisson",
        rate=25.0, connections=2,
    ))
    assert report.errors == 0
    assert report.submitted > 0
    assert report.accepted + report.backpressured == report.submitted
    assert 0.0 <= report.shed_rate <= 1.0
    assert 0.0 <= report.deadline_hit_rate <= 1.0
    assert report.jobs_per_s > 0
    text = report.render()
    assert "jobs/s sustained" in text and "deadline-hit rate" in text

    path = write_bench_artifact("svc_test", report.metrics(), report.directions(),
                                report.meta(), directory=str(tmp_path))
    payload = json.loads(path.read_text())
    assert payload["name"] == "svc_test"
    assert set(payload["metrics"]) == set(payload["directions"])
    assert payload["directions"]["svc_shed_rate"] == "lower"
    assert payload["directions"]["svc_jobs_per_s"] == "higher"
    assert payload["meta"]["submitted"] == report.submitted
