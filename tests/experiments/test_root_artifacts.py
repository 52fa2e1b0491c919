"""Provenance of the committed repo-root BENCH_*.json artifacts.

Each one must say which source revision produced it: ``meta.git_sha``
(written by :func:`repro.artifacts.write_bench_artifact`) from a clean
checkout (``meta.git_dirty`` false), so its figures can be traced to
the code that measured them.
"""

import json
import re
from pathlib import Path

import pytest

ARTIFACTS = sorted(Path(__file__).resolve().parents[2].glob("BENCH_*.json"))


@pytest.mark.parametrize("path", ARTIFACTS, ids=lambda p: p.name)
def test_root_artifact_is_stamped(path):
    meta = json.loads(path.read_text())["meta"]
    assert re.fullmatch(r"[0-9a-f]{40}", str(meta.get("git_sha"))), (
        f"{path.name}: meta.git_sha missing; regenerate it with its bench"
    )
    assert meta.get("git_dirty") is False, f"{path.name}: stamped from a dirty tree"
