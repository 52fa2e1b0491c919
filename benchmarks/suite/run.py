#!/usr/bin/env python3
"""The repository benchmark: five workloads, one command.

    python3 benchmarks/suite/run.py [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]]

Without ``--workload`` every workload runs in turn.  Each workload runs
in a fresh process (``worker.py``) that builds its inputs from the seed,
measures for about ``--seconds``, and checks its outputs.  The set-up
is timed ``SETUP_SAMPLES`` times in fresh processes and ``setup_s`` is
the median.  The command prints every metric by name and unit, then, as
its last line, one JSON object::

    {"correct": true, "attempted": 1000, "failed": 0,
     "metrics": {"throughput": {"value": 166.2, "unit": "1/s"}, ...}}

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` the
per-layer ones and writes ``spans.jsonl`` and ``layers.json`` under
``benchmarks/suite/out/<workload>/``.  Every run writes ``results.json`` there,
with the commit it measured.  The exit status is 1 when a correctness
check failed and 2 when the benchmark could not run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import speed  # noqa: E402  (needs HERE on sys.path)
import workloads  # noqa: E402

DEFAULT_SECONDS = 15.0
#: Fresh processes whose set-up is timed per workload (the last one
#: also measures).  A traced run reports no set-up time and starts one.
SETUP_SAMPLES = 5
#: Wall-clock budget of one invocation; children still running then
#: are killed.
TIME_BUDGET_S = 170.0


class BenchmarkError(RuntimeError):
    """A workload process failed before it could report."""


class _Child:
    """One ``worker.py`` process speaking the READY/GO/STOP protocol.

    The process starts on ``cpu`` alone (it inherits this process's
    affinity, set around the spawn), so one speed probe watches its
    whole set-up; ``worker.py`` widens its affinity before measuring.
    """

    def __init__(self, cmd: List[str], deadline: float, cpu: int):
        previous = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {cpu})
        try:
            self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                         text=True)
        finally:
            os.sched_setaffinity(0, previous)
        self.watchdog = threading.Timer(max(0.0, deadline - perf_counter()), self.proc.kill)
        self.watchdog.start()

    def ready(self) -> Tuple[float, float]:
        """``perf_counter`` instants the worker's set-up began and ended
        (``perf_counter`` is one system-wide monotonic clock on Linux)."""
        for line in self.proc.stdout:
            if line.startswith("READY "):
                start, end = line.split()[1:]
                return float(start), float(end)
        self._reap()
        raise BenchmarkError(f"workload process exited during set-up ({self.proc.returncode})")

    def finish(self, command: str) -> Optional[dict]:
        self.proc.stdin.write(command + "\n")
        self.proc.stdin.close()
        report = None
        for line in self.proc.stdout:
            if line.startswith("RESULT "):
                report = json.loads(line[len("RESULT "):])
        self._reap()
        if self.proc.returncode != 0 or (command == "GO" and report is None):
            raise BenchmarkError(f"workload process failed ({self.proc.returncode})")
        return report

    def _reap(self) -> None:
        self.proc.wait()
        self.watchdog.cancel()


def run_workload(name: str, seed: int, seconds: float, trace: bool, root: Path,
                 deadline: float) -> dict:
    work_dir = HERE / "out" / name
    work_dir.mkdir(parents=True, exist_ok=True)
    cpus = speed.usable_cpus()
    cmd = [sys.executable, "-u", str(HERE / "worker.py"), "--workload", name,
           "--seed", str(seed), "--seconds", repr(seconds), "--trace", str(int(trace)),
           "--root", str(root), "--work-dir", str(work_dir),
           "--cpus", ",".join(map(str, cpus))]
    intervals: List[Tuple[float, float]] = []
    child: Optional[_Child] = None
    samples = 1 if trace else SETUP_SAMPLES
    try:
        # Set-up is single-process CPU work: timed on one probed CPU and
        # scaled to nominal host speed (see speed.py).
        with speed.Host(cpus[:1]) as host:
            for i in range(samples):
                child = _Child(cmd, deadline, cpus[0])
                intervals.append(child.ready())
                if i < samples - 1:
                    child.finish("STOP")
        report = child.finish("GO")
    finally:
        if child is not None and child.proc.poll() is None:
            child.proc.kill()
            child._reap()
    samples = [host.nominal(start, end) for start, end in intervals]
    if not trace:
        report["metrics"]["setup_s"] = statistics.median(samples)
    report["setup_samples"] = samples
    report["setup_raw_s"] = [end - start for start, end in intervals]
    (work_dir / "results.json").write_text(json.dumps({
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "provenance": provenance(root), **report,
    }, indent=2) + "\n")
    return report


def provenance(root: Path) -> Dict[str, str]:
    """The measured commit and whether the tree differed from it;
    ``"unknown"`` outside a git checkout (git never looks above ``root``)."""
    unknown = {"git_sha": "unknown", "git_dirty": "unknown",
               "python": platform.python_version(), "cpus": str(os.cpu_count())}
    if not (root / ".git").exists():
        return unknown
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        sha = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"], env=env,
                             capture_output=True, text=True, check=True).stdout.strip()
        status = subprocess.run(
            ["git", "--no-optional-locks", "-C", str(root), "status", "--porcelain",
             "--untracked-files=no"],
            env=env, capture_output=True, text=True, check=True).stdout
    except (OSError, subprocess.CalledProcessError):
        return unknown
    return dict(unknown, git_sha=sha, git_dirty=str(bool(status.strip())).lower())


def units() -> Dict[str, str]:
    out = {name: unit for name, unit, _better, _bound in workloads.END_TO_END}
    out.update({name: unit for name, unit, _better in workloads.PER_LAYER})
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run the repository benchmark.")
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS),
                        help="one workload (default: all five)")
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="measured seconds per workload")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="1: report per-layer metrics and write spans.jsonl/layers.json")
    parser.add_argument("--root", type=Path, default=HERE.parents[1],
                        help="checkout whose src/ is measured (default: this one)")
    args = parser.parse_args(argv)
    root = args.root.resolve()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"benchmark: no repro package under {root / 'src'}", file=sys.stderr)
        return 2

    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    deadline = perf_counter() + TIME_BUDGET_S * len(names)
    unit_of = units()
    reports = {}
    for name in names:
        try:
            reports[name] = run_workload(name, args.seed, args.seconds, bool(args.trace),
                                         root, deadline)
        except BenchmarkError as exc:
            print(f"benchmark: {name}: {exc}", file=sys.stderr)
            return 2
        report = reports[name]
        for metric, value in report["metrics"].items():
            print(f"{name:15s} {metric:28s} {value:14.6g} {unit_of[metric]}")
        failed_checks = [c for c in report["checks"] if not c["ok"]]
        for check in failed_checks:
            print(f"{name:15s} CHECK FAILED {check['name']}: {check['detail']}")
        print(f"{name:15s} checks {len(report['checks']) - len(failed_checks)}"
              f"/{len(report['checks'])} passed; failed operations {report['failed']}"
              f" of {report['attempted']}")

    def key(name: str, metric: str) -> str:
        return metric if len(names) == 1 else f"{name}.{metric}"

    summary = {
        "correct": all(r["failed"] == 0 for r in reports.values()),
        "attempted": sum(r["attempted"] for r in reports.values()),
        "failed": sum(r["failed"] for r in reports.values()),
        "metrics": {
            key(name, metric): {"value": value, "unit": unit_of[metric]}
            for name, r in reports.items() for metric, value in r["metrics"].items()
        },
    }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
