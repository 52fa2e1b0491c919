"""BENCH_*.json artifact emission for the CI regression gate.

:func:`write_bench_artifact` is the one writer of the gate's artifact
schema: every benchmark script (through ``benchmarks/_artifacts.py``)
and the ``--bench`` options of ``repro threshold`` and ``repro
loadtest`` call it with a flat ``{metric: value}`` dict.
``benchmarks/check_regression.py`` compares each file against the
committed baseline of the same name under ``benchmarks/baselines/``;
only metrics that appear in a baseline are gated, so a writer is free
to record informational numbers too.

Not imported by the CLI at start-up (``subprocess`` and ``platform``
stay out of ``python -m repro serve``).
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from typing import Dict, Mapping, Optional, Union

from .experiments.parallel import usable_cpus

__all__ = ["write_bench_artifact"]


def _git_state() -> Dict[str, object]:
    """``git_sha`` of the checkout this package was loaded from and
    ``git_dirty`` (tracked files differ from it), or nothing when git or
    the repository is unavailable."""

    def git(*args: str) -> str:
        return subprocess.run(
            ["git", *args], cwd=Path(__file__).resolve().parent,
            capture_output=True, text=True, check=True, timeout=10,
        ).stdout.strip()

    try:
        sha = git("rev-parse", "HEAD")
        dirty = bool(git("status", "--porcelain", "--untracked-files=no"))
    except (OSError, subprocess.SubprocessError):
        return {}
    return {"git_sha": sha, "git_dirty": dirty}


def write_bench_artifact(
    name: str,
    metrics: Mapping[str, float],
    directions: Optional[Mapping[str, str]] = None,
    meta: Optional[Mapping[str, object]] = None,
    directory: Union[str, Path, None] = None,
) -> Path:
    """Write ``BENCH_<name>.json`` and return its path.

    The file lands in ``directory``, else ``$REPRO_BENCH_ARTIFACTS``
    (CI sets this and uploads the directory), else
    ``benchmarks/artifacts/`` under the current directory.

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
    if directory is None:
        directory = os.environ.get("REPRO_BENCH_ARTIFACTS") or os.path.join(
            "benchmarks", "artifacts"
        )
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
            "usable_cpus": usable_cpus(),
            **_git_state(),
        },
    }
    path = Path(directory) / f"BENCH_{name}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path
