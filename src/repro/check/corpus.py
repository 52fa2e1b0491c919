"""Failing-workload corpus files (``tests/corpus/``).

A :class:`CorpusCase` is a fully self-contained, JSON-serialised repro
of one fuzzer finding: platform, task model, the exact job releases and
demands, and which oracle flagged it.  Floats round-trip exactly
(``json`` serialises via ``repr``), so a replay re-executes the very
same simulation bit for bit.

Replayed tasks with ``a > 1`` get a :class:`BurstUAMArrivals` dummy
generator — jobs always come from the stored trace, but the task model
requires *some* generator contained in the envelope; the stored
streams may violate it, which is what some corpus cases exist to
preserve.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Union

from ..arrivals import BurstUAMArrivals, UAMSpec
from ..cpu import EnergyModel, FrequencyScale
from ..demand import NormalDemand
from ..sim.runner import Platform
from ..sim.task import Task, TaskSet
from ..sim.workload import JobSpec, WorkloadTrace
from ..tuf import LinearTUF, StepTUF

__all__ = ["CORPUS_VERSION", "CorpusCase", "load_case", "replay_case", "save_case"]

CORPUS_VERSION = 1


@dataclass
class CorpusCase:
    """One minimized failing workload plus the oracle that flagged it."""

    oracle: str  # "invariant" | "exception" | "dominance" | "scaling"
    scheduler: str  # fuzzer zoo label (empty for cross-scheduler oracles)
    invariant: Optional[str]  # invariant key for oracle == "invariant"
    note: str
    horizon: float
    platform: Dict
    tasks: List[Dict]
    jobs: List[Dict]
    version: int = CORPUS_VERSION

    # ------------------------------------------------------------------
    def build(self) -> tuple:
        """Reconstruct ``(trace, platform)`` for replay."""
        scale = FrequencyScale(self.platform["levels"])
        energy = self.platform["energy"]
        model = EnergyModel(
            s3=energy["s3"], s2=energy["s2"], s1=energy["s1"], s0=energy["s0"],
            name=energy.get("name", ""),
        )
        platform = Platform(
            scale,
            model,
            idle_power=self.platform.get("idle_power", 0.0),
            switch_time=self.platform.get("switch_time", 0.0),
            switch_energy=self.platform.get("switch_energy", 0.0),
        )
        tasks: Dict[str, Task] = {}
        for td in self.tasks:
            tuf_d = td["tuf"]
            if tuf_d["kind"] == "step":
                tuf = StepTUF(tuf_d["max_utility"], tuf_d["termination"])
            elif tuf_d["kind"] == "linear":
                tuf = LinearTUF(tuf_d["max_utility"], tuf_d["termination"])
            else:
                raise ValueError(f"unknown TUF kind {tuf_d['kind']!r}")
            spec = UAMSpec(td["uam"]["max_arrivals"], td["uam"]["window"])
            arrivals = BurstUAMArrivals(spec) if spec.max_arrivals > 1 else None
            tasks[td["name"]] = Task(
                td["name"],
                tuf,
                NormalDemand(td["demand"]["mean"], td["demand"]["variance"]),
                spec,
                arrivals=arrivals,
                nu=td["nu"],
                rho=td["rho"],
                abortable=td.get("abortable", True),
            )
        jobs = [
            JobSpec(tasks[jd["task"]], jd["index"], jd["release"], jd["demand"])
            for jd in self.jobs
        ]
        trace = WorkloadTrace(TaskSet(tasks.values()), self.horizon, jobs)
        return trace, platform


# ----------------------------------------------------------------------
def _tuf_to_dict(tuf) -> Dict:
    if isinstance(tuf, StepTUF):
        kind = "step"
    elif isinstance(tuf, LinearTUF):
        kind = "linear"
    else:
        raise ValueError(f"cannot serialise TUF {type(tuf).__name__}")
    return {"kind": kind, "max_utility": tuf.max_utility, "termination": tuf.termination}


def case_from_trace(
    trace: WorkloadTrace,
    platform: Platform,
    oracle: str,
    scheduler: str = "",
    invariant: Optional[str] = None,
    note: str = "",
) -> CorpusCase:
    """Serialise a failing ``(trace, platform)`` into a corpus case."""
    model = platform.energy_model
    return CorpusCase(
        oracle=oracle,
        scheduler=scheduler,
        invariant=invariant,
        note=note,
        horizon=trace.horizon,
        platform={
            "levels": list(platform.scale.levels),
            "energy": {
                "s3": model.s3, "s2": model.s2, "s1": model.s1, "s0": model.s0,
                "name": model.name,
            },
            "idle_power": platform.idle_power,
            "switch_time": platform.switch_time,
            "switch_energy": platform.switch_energy,
        },
        tasks=[
            {
                "name": t.name,
                "tuf": _tuf_to_dict(t.tuf),
                "uam": {"max_arrivals": t.uam.max_arrivals, "window": t.uam.window},
                "demand": {"mean": t.demand.mean, "variance": t.demand.variance},
                "nu": t.nu,
                "rho": t.rho,
                "abortable": t.abortable,
            }
            for t in trace.taskset
        ],
        jobs=[
            {"task": j.task.name, "index": j.index, "release": j.release, "demand": j.demand}
            for j in trace
        ],
    )


# ----------------------------------------------------------------------
def save_case(case: CorpusCase, path: Union[str, Path]) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(asdict(case), indent=2, sort_keys=True) + "\n")
    return path


def load_case(path: Union[str, Path]) -> CorpusCase:
    data = json.loads(Path(path).read_text())
    version = data.get("version", 0)
    if version != CORPUS_VERSION:
        raise ValueError(f"corpus case {path} has version {version}, expected {CORPUS_VERSION}")
    return CorpusCase(**data)


@dataclass
class ReplayResult:
    """Outcome of replaying one corpus case."""

    case: CorpusCase
    messages: List[str] = field(default_factory=list)

    @property
    def still_failing(self) -> bool:
        return bool(self.messages)


def replay_case(case: CorpusCase) -> ReplayResult:
    """Re-run a corpus case through the oracle that produced it."""
    # Local import: the fuzzer imports this module for saving.
    from . import fuzzer

    trace, platform = case.build()
    messages: List[str] = []
    if case.oracle in ("invariant", "exception"):
        violations, error = fuzzer.run_invariant_oracle(trace, platform, case.scheduler)
        if case.oracle == "exception":
            if error is not None:
                messages.append(error)
        else:
            messages.extend(
                str(v) for v in violations
                if case.invariant is None or v.invariant == case.invariant
            )
            if error is not None:
                messages.append(error)
    elif case.oracle == "dominance":
        msg = fuzzer.run_dominance_oracle(trace, platform)
        if msg is not None:
            messages.append(msg)
    elif case.oracle == "scaling":
        msg = fuzzer.run_scaling_oracle(trace, platform)
        if msg is not None:
            messages.append(msg)
    else:
        raise ValueError(f"unknown oracle {case.oracle!r}")
    return ReplayResult(case=case, messages=messages)
