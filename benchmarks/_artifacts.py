"""BENCH_*.json artifact emission for the CI regression gate.

Every benchmark that feeds the gate calls :func:`write_bench_artifact`
with a flat ``{metric: value}`` dict.  The file lands in
``$REPRO_BENCH_ARTIFACTS`` (CI sets this and uploads the directory) or
``benchmarks/artifacts/`` locally, and
``benchmarks/check_regression.py`` compares it against the committed
baseline of the same name under ``benchmarks/baselines/``.

Only metrics that appear in a baseline are gated, so a benchmark is
free to record informational numbers (wall-clock timings on shared CI
runners, for instance) that nobody wants a 10% tolerance on.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from typing import Dict, Mapping, Optional


def _usable_cpus() -> Optional[int]:
    """CPUs this process may actually run on (affinity-aware).

    ``os.cpu_count()`` reports the machine; a cgroup/affinity-restricted
    CI runner can see far fewer, and that is the number worker-scaling
    results should be judged against.
    """
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # non-Linux or restricted
        return os.cpu_count()


def _git_state() -> Dict[str, object]:
    """``git_sha`` of the checkout and ``git_dirty`` (tracked files
    differ from it), or nothing when git or the repository is
    unavailable."""
    root = Path(__file__).resolve().parent.parent

    def git(*args: str) -> str:
        return subprocess.run(
            ["git", *args], cwd=root, capture_output=True, text=True,
            check=True, timeout=10,
        ).stdout.strip()

    try:
        sha = git("rev-parse", "HEAD")
        dirty = bool(git("status", "--porcelain", "--untracked-files=no"))
    except (OSError, subprocess.SubprocessError):
        return {}
    return {"git_sha": sha, "git_dirty": dirty}


def artifacts_dir() -> Path:
    """Where BENCH_*.json files go (env override for CI)."""
    override = os.environ.get("REPRO_BENCH_ARTIFACTS")
    if override:
        return Path(override)
    return Path(__file__).resolve().parent / "artifacts"


def baselines_dir() -> Path:
    return Path(__file__).resolve().parent / "baselines"


def write_bench_artifact(
    name: str,
    metrics: Mapping[str, float],
    directions: Optional[Mapping[str, str]] = None,
    meta: Optional[Mapping[str, object]] = None,
) -> Path:
    """Write ``BENCH_<name>.json`` and return its path.

    ``directions`` maps a metric to ``"higher"`` (bigger is better) or
    ``"lower"``; unlisted metrics default to ``"higher"``.  The gate
    reads the direction from the *baseline*, but recording it here lets
    ``check_regression.py --update`` build baselines from scratch.

    Every artifact's ``meta`` records core-count provenance
    (``cpu_count`` = machine, ``usable_cpus`` = affinity-restricted)
    so throughput/speedup numbers can be read against the hardware
    that produced them, and the source revision (``git_sha``,
    ``git_dirty``) when git can report it.
    """
    directions = dict(directions or {})
    for key, direction in directions.items():
        if direction not in ("higher", "lower"):
            raise ValueError(f"{key}: direction must be 'higher' or 'lower'")
    payload: Dict[str, object] = {
        "name": name,
        "metrics": {k: float(v) for k, v in sorted(metrics.items())},
        "directions": {k: directions.get(k, "higher") for k in sorted(metrics)},
        "meta": {
            **(dict(meta) if meta else {}),
            "python": platform.python_version(),
            "platform": sys.platform,
            "cpu_count": os.cpu_count(),
            "usable_cpus": _usable_cpus(),
            **_git_state(),
        },
    }
    path = artifacts_dir() / f"BENCH_{name}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path
