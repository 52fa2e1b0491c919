"""How fast the host ran while an operation was timed.

On a shared host each vCPU runs up to ~2x slower for seconds to
minutes at a time, independently of the other vCPU.  CPU time
stretches with wall time, so no clock can subtract it, and a slow
stretch can cover a whole run, so pairing runs does not cancel it
either.  A :class:`Host` runs one probe process per CPU; each wakes
every 10 ms and times a fixed sliver of pure-Python work (benchmark
code that no change to ``repro`` touches).  :meth:`Host.factor` is the
probes' trimmed mean over an interval relative to :data:`NOMINAL_S`,
and dividing a duration by it gives the duration at nominal host
speed.

The probe tracks the workload well on a CPU the workload keeps busy
(a 0.1 s burst-overload simulation repeated for a minute: 18% spread
raw, 8% scaled; a run sums many) and badly on a mostly idle one, where
a waking probe runs slow whatever the neighbours do, or on another CPU
(the two vCPUs slow down independently).  The benchmark scales only
what keeps its CPUs busy.  A probe takes about 3% of its CPU, the same
share on every run.

Run as a script, this module is the probe process::

    python3 benchmarks/suite/speed.py --cpu 0    # samples until stdin closes
"""

from __future__ import annotations

import argparse
import bisect
import heapq
import json
import os
import select
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple

#: Seconds between probe samples.
PERIOD_S = 0.01
#: Kernel size of one sample.
KERNEL_N = 150
#: The benchmark's unit of host speed: the seconds one warm sample
#: takes at "nominal" speed.  It only names the unit the gated times
#: are given in (about the speed of an idle-neighbour 2-vCPU Xeon VM
#: under CPython 3.11); the probe is benchmark code, so any change to
#: ``repro`` is measured in the same unit.
NOMINAL_S = 140e-6
#: Samples this close outside an interval also describe it (an
#: interval shorter than a few probe periods has few samples inside).
MARGIN_S = 0.05
#: Share of samples dropped at each end before averaging: a sample the
#: work preempted reads slow, one that ran in a gap of a neighbour
#: reads fast, and neither describes the interval.
TRIM = 0.1


class _Item:
    __slots__ = ("key", "due", "work")

    def __init__(self, key: int, due: float, work: float):
        self.key = key
        self.due = due
        self.work = work


def probe_kernel(n: int = KERNEL_N) -> float:
    """A small event loop in plain Python — object attribute traffic, a
    heap, a dict and float arithmetic, the mix the simulator runs."""
    heap = []
    done: Dict[int, float] = {}
    clock = 0.0
    for i in range(n):
        item = _Item(i, clock + (i * 7919 % 97) * 0.01, 1.0 + (i % 13))
        heapq.heappush(heap, (item.due, item.key, item))
        if len(heap) > 48:
            due, _key, head = heapq.heappop(heap)
            clock = max(clock, due) + head.work / 1000.0
            done[head.key % 64] = done.get(head.key % 64, 0.0) + clock - due
    return clock + sum(done.values())


def usable_cpus() -> List[int]:
    return sorted(os.sched_getaffinity(0))


def trimmed_mean(values: Sequence[float], trim: float = TRIM) -> float:
    ordered = sorted(values)
    k = int(len(ordered) * trim)
    kept = ordered[k:len(ordered) - k] or ordered
    return sum(kept) / len(kept)


class Host:
    """Probe processes on ``cpus`` (default: every usable CPU), from
    construction until :meth:`stop` (or the end of a ``with`` block)."""

    def __init__(self, cpus: Optional[Sequence[int]] = None):
        self.cpus = list(cpus) if cpus is not None else usable_cpus()
        self._samples: List[Tuple[List[float], List[float]]] = []
        script = str(Path(__file__).resolve())
        self._procs = []
        try:
            for cpu in self.cpus:
                self._procs.append(subprocess.Popen(
                    [sys.executable, script, "--cpu", str(cpu)],
                    stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True))
            for proc in self._procs:
                if proc.stdout.readline().strip() != "READY":
                    raise RuntimeError("speed probe failed to start")
        except BaseException:
            self._kill()
            raise

    def stop(self) -> None:
        """End the probes and keep their samples."""
        for proc in self._procs:
            out, _ = proc.communicate(timeout=30)
            rows = json.loads(out)
            self._samples.append(([t for t, _d in rows], [d for _t, d in rows]))
        self._procs = []

    def _kill(self) -> None:
        for proc in self._procs:
            proc.kill()
            proc.wait()
        self._procs = []

    def factor(self, start: float, end: float) -> float:
        """How many times slower than nominal the probed CPUs ran over
        ``[start, end]`` (``perf_counter`` seconds): the mean over CPUs
        of each one's trimmed-mean sample, over :data:`NOMINAL_S`."""
        means = []
        for times, durations in self._samples:
            lo = bisect.bisect_left(times, start - MARGIN_S)
            hi = bisect.bisect_right(times, end + MARGIN_S)
            if hi > lo:
                means.append(trimmed_mean(durations[lo:hi]))
        if not means:
            raise ValueError("no probe samples cover the interval")
        return sum(means) / len(means) / NOMINAL_S

    def nominal(self, start: float, end: float) -> float:
        """Duration of ``[start, end]`` at nominal host speed."""
        return (end - start) / self.factor(start, end)

    def __enter__(self) -> "Host":
        return self

    def __exit__(self, *exc) -> None:
        if self._procs:
            if exc[0] is None:
                self.stop()
            else:
                self._kill()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="One speed probe, pinned to one CPU.")
    parser.add_argument("--cpu", type=int, required=True)
    args = parser.parse_args(argv)
    os.sched_setaffinity(0, {args.cpu})
    rows: List[Tuple[float, float]] = []
    print("READY", flush=True)
    while not select.select([sys.stdin], [], [], PERIOD_S)[0]:
        # The first run after a wake-up is cold (caches, predictors);
        # only the second is timed.
        probe_kernel()
        t0 = perf_counter()
        probe_kernel()
        rows.append((t0, perf_counter() - t0))
    sys.stdout.write(json.dumps(rows))
    return 0


if __name__ == "__main__":
    sys.exit(main())
