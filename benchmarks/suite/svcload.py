"""Client side of the service workloads: server processes and load.

The service always runs in its own process (``python -m repro serve``,
or ``traced_serve.py`` for a traced run), so it never shares an
interpreter or an event loop with the load generator.  The generator
is blocking and minimal: one keep-alive HTTP/1.1 connection replays a
schedule, open or closed loop (in svc-ingest's closed loop alternating
with the reference service, ``refserve.py``), and an optional second
connection tails the event stream from a thread.
"""

from __future__ import annotations

import json
import os
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

#: Seconds a server may take to print its address and answer /healthz.
START_TIMEOUT_S = 30.0
#: Seconds to wait for the ready set to drain after a replay.
DRAIN_TIMEOUT_S = 3.0
#: Latency samples due in the first seconds of a replay are not
#: reported: the connection and the server's code paths warm up there.
WARMUP_S = 0.2


class Connection:
    """One blocking keep-alive HTTP/1.1 connection."""

    def __init__(self, host: str, port: int, timeout: float = 30.0):
        self.sock = socket.create_connection((host, port), timeout=timeout)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.reader = self.sock.makefile("rb")
        self.host = host

    def request(self, method: str, path: str, body: bytes = b"") -> Tuple[int, bytes]:
        self.sock.sendall(
            f"{method} {path} HTTP/1.1\r\nHost: {self.host}\r\n"
            f"Content-Length: {len(body)}\r\n\r\n".encode() + body
        )
        status_line = self.reader.readline()
        if not status_line:
            raise ConnectionError("server closed the connection")
        status = int(status_line.split()[1])
        length = 0
        while True:
            header = self.reader.readline()
            if header in (b"\r\n", b"\n", b""):
                break
            name, _, value = header.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                length = int(value.strip())
        return status, self.reader.read(length) if length else b""

    def get_json(self, path: str) -> dict:
        status, data = self.request("GET", path)
        if status != 200:
            raise ConnectionError(f"GET {path} answered {status}")
        return json.loads(data)

    def close(self) -> None:
        self.reader.close()
        self.sock.close()


class Server:
    """A service process, started with ``cmd``, on an ephemeral loopback
    port: it prints ``... at http://HOST:PORT`` and answers
    ``GET /healthz`` and ``POST /shutdown``."""

    def __init__(self, cmd: List[str], cwd: Path, env: Optional[Dict[str, str]] = None):
        self.proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=subprocess.PIPE,
                                     stdin=subprocess.DEVNULL, text=True)
        try:
            self.host, self.port = self._address()
            self.control = self._connect()
        except BaseException:
            self._kill()
            raise

    def _address(self) -> Tuple[str, int]:
        timer = threading.Timer(START_TIMEOUT_S, self.proc.kill)
        timer.start()
        try:
            line = self.proc.stdout.readline()
        finally:
            timer.cancel()
        if " at http://" not in line:
            raise RuntimeError(f"service did not start (said {line!r})")
        hostport = line.split(" at http://", 1)[1].split()[0]
        host, _, port = hostport.rpartition(":")
        return host, int(port)

    def _connect(self) -> Connection:
        deadline = perf_counter() + START_TIMEOUT_S
        while True:
            try:
                conn = Connection(self.host, self.port)
                if conn.request("GET", "/healthz")[0] == 200:
                    return conn
                conn.close()
            except OSError:
                if perf_counter() > deadline:
                    raise
            time.sleep(0.01)

    def connect(self) -> Connection:
        return Connection(self.host, self.port)

    def cpu_seconds(self) -> float:
        """CPU time the service's main thread has run, to the nanosecond
        (``/proc/PID/stat`` counts 10 ms ticks); both services serve
        from one asyncio thread."""
        with open(f"/proc/{self.proc.pid}/schedstat") as fh:
            return int(fh.read().split()[0]) * 1e-9

    def drain(self) -> dict:
        """Wait until no admitted or deferred job is pending; final /stats."""
        deadline = perf_counter() + DRAIN_TIMEOUT_S
        while True:
            stats = self.control.get_json("/stats")
            if (stats["ready_depth"] == 0 and stats["deferred_pending"] == 0) \
                    or perf_counter() > deadline:
                return stats
            time.sleep(0.02)

    def stop(self) -> None:
        """POST /shutdown and wait for the process to end."""
        try:
            self.control.request("POST", "/shutdown")
            self.control.close()
        except OSError:
            pass
        try:
            self.proc.communicate(timeout=20.0)
        except subprocess.TimeoutExpired:
            self._kill()

    def _kill(self) -> None:
        self.proc.kill()
        self.proc.communicate()


def repro_server(root: Path, seed: int, rate: float, load: float, policy: str,
                 dump: Optional[Path] = None) -> Server:
    """``python -m repro serve`` of the checkout at ``root``; with
    ``dump``, the traced server (``traced_serve.py``), which writes its
    span aggregates to that path when it shuts down."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    args = ["--port", "0", "--load", repr(load), "--seed", str(seed), "--rate", repr(rate),
            "--policy", policy]
    if dump is None:
        return Server([sys.executable, "-u", "-m", "repro", "serve", *args], root, env)
    script = Path(__file__).with_name("traced_serve.py")
    return Server([sys.executable, "-u", str(script), "--root", str(root), "--dump", str(dump),
                   *args], root, env)


def reference_server() -> Server:
    """The benchmark's reference service (``refserve.py``)."""
    script = Path(__file__).with_name("refserve.py")
    return Server([sys.executable, "-u", str(script), "--port", "0"], script.parent)


@dataclass
class Replay:
    """What one replay observed, client side."""

    #: ``perf_counter`` instant the schedule's offsets count from.
    start: float = 0.0
    #: ``(due, sent, done)`` seconds from ``start``, one per answered
    #: request: when it was scheduled, sent, and answered.
    records: List[Tuple[float, float, float]] = field(default_factory=list)
    statuses: Dict[int, int] = field(default_factory=dict)
    transport_errors: int = 0
    offered_utility: float = 0.0
    wall_s: float = 0.0

    @property
    def sent(self) -> int:
        return len(self.records)

    def latencies(self) -> List[Tuple[float, float]]:
        """``(due, seconds from due to answer)`` past the warm-up (all of
        them when nothing was due after it)."""
        settled = [(due, done - due) for due, _sent, done in self.records if due >= WARMUP_S]
        return settled or [(due, done - due) for due, _sent, done in self.records]

    def lateness(self) -> List[float]:
        """Seconds each request was sent after it was due."""
        return [sent - due for due, sent, _done in self.records]

    @classmethod
    def merged(cls, parts: Sequence["Replay"]) -> "Replay":
        """Consecutive replays on one connection as one, timed from the
        first one's start."""
        out = cls(start=parts[0].start)
        for part in parts:
            shift = part.start - out.start
            out.records += [(due + shift, sent + shift, done + shift)
                            for due, sent, done in part.records]
            for status, n in part.statuses.items():
                out.statuses[status] = out.statuses.get(status, 0) + n
            out.transport_errors += part.transport_errors
            out.offered_utility += part.offered_utility
        out.wall_s = parts[-1].start + parts[-1].wall_s - out.start
        return out


def replay(conn: Connection, schedule: Sequence[Tuple[float, str]],
           utility_of: Dict[str, float], tracer=None,
           demand: Optional[float] = None) -> Replay:
    """Send ``schedule`` (wall-clock offsets, task names) on one connection.

    Each request waits for its offset, or for the previous reply when
    that comes later: spread-out offsets make an open loop, all-zero
    offsets a closed loop.  Each request's latency runs from when it was
    *due*, so a stall also counts against every request queued behind
    it.  ``demand`` (Mcycles) replaces every job's budgeted demand.
    With a ``tracer`` each request is a ``loadgen.request`` span
    carrying its request id, which the traced server stamps on its own
    spans.
    """
    t0 = perf_counter() + 0.01
    out = Replay(start=t0)
    for rid, (offset, task) in enumerate(schedule):
        due = t0 + offset
        delay = due - perf_counter()
        if delay > 0.0:
            time.sleep(delay)
        sent = perf_counter()
        body = {"task": task}
        if demand is not None:
            body["demand"] = demand
        if tracer is not None:
            body["rid"] = rid
        if tracer is not None:
            tracer.request = rid
            tracer.enter("loadgen.request")
        try:
            status, _ = conn.request("POST", "/jobs", json.dumps(body).encode())
        except OSError:
            out.transport_errors += len(schedule) - rid
            break
        finally:
            if tracer is not None:
                tracer.exit()
        done = perf_counter()
        out.records.append((offset, sent - t0, done - t0))
        out.statuses[status] = out.statuses.get(status, 0) + 1
        out.offered_utility += utility_of[task]
    out.wall_s = perf_counter() - t0
    return out


def alternate(conn: Connection, reference: Connection, schedule: Sequence[Tuple[float, str]],
              utility_of: Dict[str, float], block: int, tracer=None,
              demand: Optional[float] = None) -> Tuple[Replay, Replay]:
    """Replay ``schedule`` on ``conn`` ``block`` requests at a time,
    each block followed by the same requests on ``reference``, so both
    services run under the same host conditions.  Returns the two
    merged replays."""
    ours: List[Replay] = []
    theirs: List[Replay] = []
    for lo in range(0, len(schedule), block):
        part = schedule[lo:lo + block]
        ours.append(replay(conn, part, utility_of, tracer, demand))
        theirs.append(replay(reference, part, utility_of, demand=demand))
    return Replay.merged(ours), Replay.merged(theirs)


class Read(NamedTuple):
    """One ``GET /events`` response."""

    start: float  # perf_counter instant the request was sent
    seconds: float
    events: int
    size: int  # bytes


class TailReader(threading.Thread):
    """Second connection: ``GET /events?since=cursor`` every ``period``."""

    def __init__(self, conn: Connection, period: float = 0.05):
        super().__init__(daemon=True)
        self.conn = conn
        self.period = period
        self.cursor = 0
        self.reads: List[Read] = []
        self.errors = 0
        self.statuses: Dict[int, int] = {}
        self._halt = threading.Event()

    def read_once(self) -> None:
        start = perf_counter()
        status, data = self.conn.request("GET", f"/events?since={self.cursor}")
        elapsed = perf_counter() - start
        self.statuses[status] = self.statuses.get(status, 0) + 1
        events = data.count(b"\n")
        self.cursor += events
        self.reads.append(Read(start, elapsed, events, len(data)))

    def run(self) -> None:
        while not self._halt.wait(self.period):
            try:
                self.read_once()
            except OSError:
                self.errors += 1
                return

    def stop(self) -> None:
        self._halt.set()
        self.join(timeout=10.0)
