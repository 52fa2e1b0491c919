"""The asyncio scheduler service: HTTP ingestion + real-time dispatch.

:class:`SchedulerService` wraps a :class:`~repro.svc.core.ServiceCore`
in a long-running asyncio loop:

* a stdlib HTTP/1.1 front-end (``asyncio.start_server`` — no external
  dependencies) accepts job submissions and serves the decision stream;
* a single executor task emulates the uniprocessor: it re-decides at
  every scheduling event (arrival, completion, deadline expiry — the
  paper's event model), then *sleeps* for the dispatched job's
  remaining execution time at the decided frequency, waking early when
  a new submission preempts the decision;
* time comes from a :class:`~repro.sim.clock.WallClock`, whose ``rate``
  compresses emulated seconds into wall seconds for load replay, and
  whose drift accounting surfaces in ``/stats``.

Endpoints (all JSON unless noted)::

    POST /jobs            {"task": name, "demand": Mcycles?}  -> verdict
    POST /jobs/batch      [submission, ...]                   -> [verdict, ...]
    GET  /events?since=N  decision stream as repro.obs JSONL
    GET  /stats           lifecycle counters + clock drift
    GET  /healthz         liveness probe
    POST /shutdown        graceful stop

Accepted submissions return 200; shed/rejected ones return 429 with the
verdict body so clients can distinguish back-pressure from errors.
"""

from __future__ import annotations

import asyncio
import json
import math
from typing import Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from ..obs import events_to_jsonl
from ..sim.clock import WallClock
from .core import ServiceCore, UnknownTaskError

__all__ = ["SchedulerService"]

_MAX_BODY = 1 << 20


class SchedulerService:
    """One service instance: HTTP front-end + executor over a core."""

    def __init__(
        self,
        core: ServiceCore,
        clock: Optional[WallClock] = None,
        host: str = "127.0.0.1",
        port: int = 0,
    ):
        self.core = core
        self.clock = clock if clock is not None else WallClock()
        self.host = host
        self.port = port
        self._server: Optional[asyncio.AbstractServer] = None
        self._executor: Optional[asyncio.Task] = None
        #: Set by submissions/completions to preempt the executor's wait.
        self._wake = asyncio.Event()
        self._stopping = asyncio.Event()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind the listener and start the executor task."""
        self.clock.start()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._executor = asyncio.create_task(self._run_executor())

    async def stop(self) -> None:
        """Stop accepting, cancel the executor, close the listener."""
        self._stopping.set()
        if self._executor is not None:
            self._executor.cancel()
            try:
                await self._executor
            except asyncio.CancelledError:
                pass
            self._executor = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def serve_until_shutdown(self) -> None:
        """Run until ``POST /shutdown`` (or :meth:`stop`) is called."""
        if self._server is None:
            await self.start()
        await self._stopping.wait()
        await self.stop()

    @property
    def address(self) -> str:
        return f"http://{self.host}:{self.port}"

    # ------------------------------------------------------------------
    # Executor: the real-time dispatch loop
    # ------------------------------------------------------------------
    async def _run_executor(self) -> None:
        core, clock = self.core, self.clock
        # Checked every turn, not left to stop()'s cancel alone: under
        # Python 3.11 ``asyncio.wait_for`` swallows a cancel that lands
        # in the same loop turn as the wake it was waiting for.
        while not self._stopping.is_set():
            self._wake.clear()
            t = clock.now()
            decision = core.decide(t)
            job = decision.job
            if job is None:
                # Idle until a submission or the next timer (deferral
                # grant / termination deadline); the wait is idle time.
                timer = core.next_timer(t)
                timeout = clock.wall_remaining(timer) if timer is not None else None
                if timeout is not None and timeout <= 0.0:
                    continue
                start = clock.now()
                await self._wait_for_wake(timeout)
                core.advance(None, clock.now() - start)
                if timeout is not None:
                    clock.note_lag(timer)
                continue
            # Emulate execution: sleep until the predicted completion,
            # waking early if a new arrival preempts the decision.
            freq = decision.frequency
            start = clock.now()
            target = start + job.remaining_demand / freq
            woken = await self._wait_for_wake(max(0.0, clock.wall_remaining(target)))
            now = clock.now()
            core.advance(job, now - start, freq)
            if not woken:
                clock.note_lag(target)
            if not core.complete_if_done(job, now) and not woken:
                # Timer fired but demand remains (drift under-ran the
                # emulated cycles): loop and keep executing.
                continue

    #: Final stretch of a timed wait handled by cooperative spinning:
    #: ``asyncio.wait_for`` timeouts overshoot by one timer quantum
    #: (~1-3ms), which a rate-scaled clock multiplies into real
    #: deadline misses.  Spinning the loop for the last couple of
    #: milliseconds keeps waits punctual while staying preemptible.
    _SPIN_S = 0.002

    async def _wait_for_wake(self, timeout: Optional[float]) -> bool:
        """Wait for a wake signal; True when woken, False on timeout."""
        if timeout is None:
            await self._wake.wait()
            return True
        loop = asyncio.get_running_loop()
        deadline = loop.time() + timeout
        coarse = timeout - self._SPIN_S
        if coarse > 0.0:
            try:
                await asyncio.wait_for(self._wake.wait(), coarse)
                return True
            except asyncio.TimeoutError:
                pass
        while loop.time() < deadline:
            if self._wake.is_set():
                return True
            await asyncio.sleep(0)
        return self._wake.is_set()

    def _kick(self) -> None:
        self._wake.set()

    # ------------------------------------------------------------------
    # HTTP front-end (minimal HTTP/1.1, keep-alive)
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while not self._stopping.is_set():
                try:
                    request = await self._read_request(reader)
                except _BadRequest as exc:
                    # The stream position is unknown past a bad request:
                    # answer, then close instead of parsing on.
                    writer.write(_response(exc.status, _json({"error": str(exc)}),
                                           close=True))
                    await writer.drain()
                    break
                if request is None:
                    break
                method, path, body = request
                status, payload = self._route(method, path, body)
                writer.write(_response(status, payload, ndjson=path.startswith("/events")))
                await writer.drain()
        except (ConnectionResetError, asyncio.IncompleteReadError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Optional[Tuple[str, str, bytes]]:
        """One request off the stream; ``None`` at a clean EOF.

        Raises :class:`_BadRequest`: 400 for a malformed request line, a
        line past the stream's buffer limit, or a ``Content-Length``
        that is not a decimal count; 413 for a body over the cap.
        """
        try:
            line = await reader.readline()
            if not line:
                return None
            parts = line.decode("ascii").split()
            if len(parts) != 3:
                raise ValueError("malformed request line")
            method, path, _version = parts
            length = 0
            while True:
                header = await reader.readline()
                if header in (b"\r\n", b"\n", b""):
                    break
                name, _, value = header.decode("latin-1").partition(":")
                if name.strip().lower() == "content-length":
                    value = value.strip()
                    if not (value.isascii() and value.isdigit()):
                        raise ValueError(f"invalid Content-Length {value!r}")
                    length = int(value)
        except ValueError as exc:
            raise _BadRequest("400 Bad Request", str(exc)) from None
        if length > _MAX_BODY:
            raise _BadRequest("413 Payload Too Large", f"body exceeds {_MAX_BODY} bytes")
        body = await reader.readexactly(length) if length else b""
        return method, path, body

    def _route(self, method: str, path: str, body: bytes) -> Tuple[str, bytes]:
        url = urlsplit(path)
        route = (method.upper(), url.path)
        if route == ("POST", "/jobs"):
            return self._submit_one(body)
        if route == ("POST", "/jobs/batch"):
            return self._submit_batch(body)
        if route == ("GET", "/events"):
            return self._events(url.query)
        if route == ("GET", "/stats"):
            return "200 OK", _json(self.describe())
        if route == ("GET", "/tasks"):
            return "200 OK", _json([
                {
                    "name": task.name,
                    "a": task.uam.max_arrivals,
                    "window": task.uam.window,
                    "allocation": task.allocation,
                    "critical_time": task.critical_time,
                }
                for task in self.core.taskset
            ])
        if route == ("GET", "/healthz"):
            return "200 OK", _json({"status": "ok"})
        if route == ("POST", "/shutdown"):
            self._stopping.set()
            self._kick()
            return "200 OK", _json({"status": "stopping"})
        return "404 Not Found", _json({"error": f"no route {method} {url.path}"})

    def _submit_one(self, body: bytes) -> Tuple[str, bytes]:
        try:
            task, demand = _submission(json.loads(body or b"{}"))
            outcome = self.core.submit(task, self.clock.now(), demand=demand)
        except UnknownTaskError as exc:
            return "400 Bad Request", _json({"error": f"unknown task {exc.args[0]!r}"})
        except (TypeError, ValueError) as exc:
            return "400 Bad Request", _json({"error": str(exc)})
        self._kick()
        status = "200 OK" if outcome.accepted else "429 Too Many Requests"
        return status, _json(outcome.to_dict())

    def _submit_batch(self, body: bytes) -> Tuple[str, bytes]:
        """All-or-nothing on shape: every element is validated before
        any is submitted, so a malformed element rejects the whole batch
        with nothing admitted.  Unknown task names are per-item errors."""
        try:
            specs = json.loads(body or b"[]")
            if not isinstance(specs, list):
                raise ValueError("batch body must be a JSON array")
            submissions = [_submission(spec) for spec in specs]
        except (TypeError, ValueError) as exc:
            return "400 Bad Request", _json({"error": str(exc)})
        verdicts = []
        for task, demand in submissions:
            try:
                outcome = self.core.submit(task, self.clock.now(), demand=demand)
                verdicts.append(outcome.to_dict())
            except UnknownTaskError as exc:
                verdicts.append(
                    {"status": "error", "reason": f"unknown task {exc.args[0]!r}"}
                )
        self._kick()
        return "200 OK", _json(verdicts)

    def _events(self, query: str) -> Tuple[str, bytes]:
        raw = parse_qs(query).get("since", ["0"])[0]
        if not raw.isdecimal():  # rejects negatives and non-integers
            return "400 Bad Request", _json(
                {"error": f"since must be a non-negative integer, got {raw!r}"}
            )
        since = int(raw)
        log = self.core.observer.events
        events = log.events[since:] if log is not None else []
        return "200 OK", events_to_jsonl(events).encode()

    # ------------------------------------------------------------------
    def describe(self) -> dict:
        """Stats payload: core counters + clock drift + clock time."""
        out = self.core.stats()
        out["clock_now"] = self.clock.now()
        out["clock_rate"] = self.clock.rate
        out["drift"] = self.clock.drift.summary()
        return out


class _BadRequest(Exception):
    """A request the front-end answers with ``status`` and then closes."""

    def __init__(self, status: str, reason: str):
        super().__init__(reason)
        self.status = status


def _response(status: str, payload: bytes, ndjson: bool = False, close: bool = False) -> bytes:
    return (
        f"HTTP/1.1 {status}\r\n"
        "Content-Type: "
        f"{'application/x-ndjson' if ndjson else 'application/json'}\r\n"
        f"Content-Length: {len(payload)}\r\n"
        f"Connection: {'close' if close else 'keep-alive'}\r\n\r\n"
    ).encode() + payload


def _submission(spec: object) -> Tuple[str, Optional[float]]:
    """Validate one submission ``{"task": name, "demand": Mcycles?}``.

    Raises ``TypeError``/``ValueError`` on a malformed shape, including
    a ``demand`` that is not a JSON number (a string or a boolean) or is
    non-finite or non-positive; whether the task exists is the core's
    call (:class:`UnknownTaskError`).
    """
    if not isinstance(spec, dict):
        raise TypeError(f"submission must be a JSON object, got {type(spec).__name__}")
    task = spec.get("task")
    if not isinstance(task, str):
        raise ValueError('submission needs a "task" name')
    demand = spec.get("demand")
    if demand is not None and (isinstance(demand, bool) or not isinstance(demand, (int, float))
                               or not 0.0 < demand < math.inf):
        raise ValueError(f"demand must be a finite number > 0, got {demand!r}")
    return task, float(demand) if demand is not None else None


def _json(payload: object) -> bytes:
    return json.dumps(payload).encode()
