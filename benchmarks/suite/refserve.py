"""The reference service: svc-ingest's yardstick for host speed.

A standard-library HTTP/1.1 JSON service shaped like ``repro serve``'s
submission path — an asyncio keep-alive connection, the request parsed
line by line, the body decoded, a per-task counter, seven event records
appended to an in-memory log, a JSON verdict — and nothing of
``repro``.  svc-ingest sends it the same submissions as the service,
block for block, on the same CPU; its CPU time per request tells how
fast the host ran that kind of work, as the probe in :mod:`speed` does
for pure-Python work.  No change to ``repro`` changes what it does.

    python3 benchmarks/suite/refserve.py --port 0
    # prints "reference service at http://HOST:PORT"; POST /shutdown stops it
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
from typing import Dict, List

#: Event records one submission adds to the log (``repro serve`` logs
#: seven per admitted-and-completed submission on a frozen clock).
EVENTS_PER_SUBMISSION = ("submit", "uam", "admit", "release", "decide", "dispatch", "complete")


class Reference:
    def __init__(self) -> None:
        self.counts: Dict[str, int] = {}
        self.log: List[dict] = []
        self.stopping = asyncio.Event()

    def submit(self, body: bytes) -> bytes:
        spec = json.loads(body or b"{}")
        task = spec["task"]
        n = self.counts[task] = self.counts.get(task, 0) + 1
        for kind in EVENTS_PER_SUBMISSION:
            self.log.append({"seq": len(self.log), "kind": kind, "task": task, "job": n,
                             "demand": spec.get("demand"), "t": 0.0})
        return json.dumps({"status": "admitted", "job": [task, n], "reason": None}).encode()

    def route(self, method: str, path: str, body: bytes) -> bytes:
        if (method, path) == ("POST", "/jobs"):
            return self.submit(body)
        if (method, path) == ("POST", "/shutdown"):
            self.stopping.set()
        return json.dumps({"status": "ok"}).encode()

    async def handle(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        try:
            while not self.stopping.is_set():
                line = await reader.readline()
                if not line:
                    break
                method, path, _version = line.decode("ascii").split()
                length = 0
                while True:
                    header = await reader.readline()
                    if header in (b"\r\n", b"\n", b""):
                        break
                    name, _, value = header.decode("latin-1").partition(":")
                    if name.strip().lower() == "content-length":
                        length = int(value.strip())
                body = await reader.readexactly(length) if length else b""
                payload = self.route(method, path, body)
                writer.write(b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
                             b"Content-Length: %d\r\nConnection: keep-alive\r\n\r\n"
                             % len(payload) + payload)
                await writer.drain()
        except (ConnectionResetError, asyncio.IncompleteReadError):
            pass
        finally:
            writer.close()


async def serve(host: str, port: int) -> None:
    reference = Reference()
    server = await asyncio.start_server(reference.handle, host, port)
    bound = server.sockets[0].getsockname()
    print(f"reference service at http://{bound[0]}:{bound[1]}", flush=True)
    await reference.stopping.wait()
    server.close()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="The benchmark's reference service.")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0)
    args = parser.parse_args(argv)
    asyncio.run(serve(args.host, args.port))
    return 0


if __name__ == "__main__":
    sys.exit(main())
