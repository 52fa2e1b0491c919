"""Where the benchmarks' BENCH_*.json artifacts and baselines live.

Every benchmark that feeds the gate calls :func:`write_bench_artifact`
with a flat ``{metric: value}`` dict; it delegates to the package's one
writer, :func:`repro.artifacts.write_bench_artifact`, pinned to
:func:`artifacts_dir`.  The file lands in ``$REPRO_BENCH_ARTIFACTS``
(CI sets this and uploads the directory) or ``benchmarks/artifacts/``
locally, and ``benchmarks/check_regression.py`` compares it against
the committed baseline of the same name under ``benchmarks/baselines/``.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Mapping, Optional


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
    """Write ``BENCH_<name>.json`` into :func:`artifacts_dir` and return
    its path (schema and provenance: :mod:`repro.artifacts`)."""
    from repro.artifacts import write_bench_artifact as write

    return write(name, metrics, directions, meta, directory=artifacts_dir())
