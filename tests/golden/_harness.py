"""Shared fixture logic for the golden-trace regression suite.

One fixed-seed Table-1 workload per scheduler; the full structured
decision/event log (``repro.obs`` JSONL) is committed under
``tests/golden/`` and every run must reproduce it byte-for-byte (modulo
JSON parsing — the diff compares parsed objects so a cosmetic
serialisation change fails loudly but legibly).

Regenerate with ``python tests/golden/regenerate.py`` after an
*intentional* behaviour change, and say why in the commit message.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List

import numpy as np

from repro.experiments import synthesize_taskset
from repro.experiments.adaptive import drifting_trace
from repro.obs import Observer, events_to_jsonl
from repro.resources import REUA, ResourceMap
from repro.runtime import AdaptiveRuntime, RuntimeConfig
from repro.sched import make_scheduler
from repro.sim import Platform, materialize, simulate

GOLDEN_DIR = Path(__file__).resolve().parent

#: The frozen workload: Table-1 periodic step-TUF synthesis.
SEED = 11
LOAD = 0.8
HORIZON = 0.4

#: The adaptive-runtime case replays the canonical drift scenario from
#: ``repro.experiments.adaptive`` instead (the compliant short-horizon
#: workload above never trips the detectors, so its runtime log would
#: be indistinguishable from plain EUA*).
ADAPTIVE_LABEL = "EUA*-adaptive"
ADAPTIVE_LOAD = 0.9
ADAPTIVE_HORIZON = 1.0

#: The multicore case freezes the partitioned m=2 engine: the same
#: Table-1 synthesis at an m-scaled load, packed onto two cores, each
#: running the uniprocessor EUA* over its sub-workload.  Events carry a
#: ``core`` field; the interleaving (core 0's full log, then core 1's)
#: is part of the frozen contract.
MP_LABEL = "EUA*-mp-partitioned"
MP_CORES = 2

#: The global-mode multicore case freezes the shared-queue m=2 engine
#: over the same m-scaled workload: top-m selection (dvs=False views),
#: affinity-first placement, and — the PR 10 fix — per-core residual
#: ``decideFreq`` views, whose core-stamped FREQ_DECISION events are
#: part of the frozen contract.
MP_GLOBAL_LABEL = "EUA*-mp-global"

#: scheduler label -> (filename, factory).  REUA is not in the registry
#: (it needs a resource map), so it gets an explicit factory.
CASES = {
    "EUA*": ("eua_star.jsonl", lambda: make_scheduler("EUA*")),
    "DASA": ("dasa.jsonl", lambda: make_scheduler("DASA")),
    "EDF": ("edf.jsonl", lambda: make_scheduler("EDF")),
    "REUA": ("reua.jsonl", lambda: REUA(ResourceMap({}))),
    ADAPTIVE_LABEL: ("eua_star_adaptive.jsonl", lambda: make_scheduler("EUA*")),
    MP_LABEL: ("eua_star_mp_partitioned.jsonl", lambda: make_scheduler("EUA*")),
    MP_GLOBAL_LABEL: ("eua_star_mp_global.jsonl", lambda: make_scheduler("EUA*")),
}


def record_events_jsonl(label: str, checker=None, spans: bool = False) -> str:
    """Run the fixed workload under ``label``'s scheduler and return the
    structured event log as JSONL text.

    ``checker`` optionally attaches a :class:`repro.check.InvariantChecker`
    and ``spans`` a live :class:`repro.obs.SpanTracer` — the transparency
    suite asserts the log is bit-identical with and without either.
    """
    filename, factory = CASES[label]
    observer = Observer(events=True, metrics=False, spans=spans)
    if label == ADAPTIVE_LABEL:
        platform = Platform.powernow_k6()
        trace = drifting_trace(
            seed=SEED, load=ADAPTIVE_LOAD, horizon=ADAPTIVE_HORIZON, platform=platform
        )
        runtime = AdaptiveRuntime(RuntimeConfig())
        simulate(trace, factory(), platform, observer=observer, runtime=runtime,
                 checker=checker)
    elif label in (MP_LABEL, MP_GLOBAL_LABEL):
        from repro.mp import MulticorePlatform, simulate_mp

        rng = np.random.default_rng(SEED)
        taskset = synthesize_taskset(LOAD * MP_CORES, rng)
        trace = materialize(taskset, HORIZON, rng)
        platform = MulticorePlatform.from_platform(Platform(), cores=MP_CORES)
        mode = "partitioned" if label == MP_LABEL else "global"
        simulate_mp(trace, factory, platform, mode=mode, observer=observer,
                    checker=checker)
    else:
        rng = np.random.default_rng(SEED)
        taskset = synthesize_taskset(LOAD, rng)
        trace = materialize(taskset, HORIZON, rng)
        simulate(trace, factory(), Platform(), observer=observer, checker=checker)
    return events_to_jsonl(observer.events)


def golden_path(label: str) -> Path:
    return GOLDEN_DIR / CASES[label][0]


def parse_jsonl(text: str) -> List[Dict]:
    return [json.loads(line) for line in text.splitlines() if line.strip()]


def diff_events(expected: List[Dict], actual: List[Dict]) -> List[str]:
    """Human-readable mismatch report between two parsed event streams."""
    problems: List[str] = []
    if len(expected) != len(actual):
        problems.append(f"event count: golden={len(expected)} replay={len(actual)}")
    for i, (e, a) in enumerate(zip(expected, actual)):
        if e != a:
            keys = sorted(set(e) | set(a))
            fields = [
                f"{k}: golden={e.get(k)!r} replay={a.get(k)!r}"
                for k in keys
                if e.get(k) != a.get(k)
            ]
            problems.append(f"event #{i}: " + "; ".join(fields))
            if len(problems) >= 10:
                problems.append("... (further diffs suppressed)")
                break
    return problems
