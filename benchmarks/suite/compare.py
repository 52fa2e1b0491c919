#!/usr/bin/env python3
"""Parent-vs-change comparison on the repository benchmark.

    python3 benchmarks/suite/compare.py --parent DIR --change DIR [--workload NAME ...]
                                        [--pairs 10] [--seed N]

``DIR`` is a checkout of each commit (``git worktree add`` or ``git
archive``); both are measured by *this* checkout's benchmark code at
its own run length (``run.DEFAULT_SECONDS``, the ``run_seconds`` the
bounds were set at), so the two sides differ only in ``src/``.  Pair
``i`` runs both sides with seed ``N + i``, the parent first on even
pairs and the change first on odd ones.  One row per workload and
metric gives each side's median and quartiles and the verdict of
:func:`verdict`; ``benchmarks/suite/out/compare.json`` keeps every
sample.  The exit status is 1 when any metric regressed.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Sequence

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402  (needs HERE on sys.path)

#: Share of all pairs the change must win to claim a gain.
WIN_SHARE = 0.9


def quartiles(values: Sequence[float]):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def wins(parent: Sequence[float], change: Sequence[float], better: str) -> int:
    """Pairs in which the change read better; ties count for neither side."""
    sign = 1.0 if better == "higher" else -1.0
    return sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)


def verdict(parent: Sequence[float], change: Sequence[float], better: str,
            bound: float) -> str:
    """Classify one metric from paired samples (``parent[i]`` and
    ``change[i]`` ran as pair ``i``).

    ``gain``        the change won at least 9 in 10 pairs (ties count for
                    neither side) and the medians differ by more than
                    the parent's interquartile range;
    ``regression``  the change's median is worse than the parent's by
                    more than ``bound`` (a share of the parent median);
    ``unresolved``  the parent's own spread exceeds ``bound``, so "no
                    regression" cannot be told from noise — unless every
                    change run reads better than every parent run;
    ``unchanged``   otherwise.
    """
    if len(parent) != len(change) or len(parent) < 2:
        raise ValueError("need at least two pairs of samples")
    sign = 1.0 if better == "higher" else -1.0
    q1, p_med, q3 = quartiles(parent)
    c_med = statistics.median(change)
    gap = sign * (c_med - p_med)
    if wins(parent, change, better) >= math.ceil(WIN_SHARE * len(parent)) and gap > q3 - q1:
        return "gain"
    if -gap > bound * abs(p_med):
        return "regression"
    spread = (q3 - q1) / abs(p_med) if p_med else math.inf
    every_run_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if spread > bound and not every_run_better:
        return "unresolved"
    return "unchanged"


def run_once(root: Path, workload: str, seed: int) -> Dict[str, float]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--root", str(root)],
        capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} on {root} (seed {seed}) failed:\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    return {name: m["value"] for name, m in result["metrics"].items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--workload", action="append", choices=sorted(workloads.WORKLOADS),
                        help="repeatable (default: every workload)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    args = parser.parse_args(argv)
    if args.pairs < 10:
        parser.error("the decision rule needs at least 10 pairs")
    names = args.workload or list(workloads.WORKLOADS)
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}

    samples: Dict[str, Dict[str, Dict[str, List[float]]]] = {}
    for name in names:
        samples[name] = {"parent": {}, "change": {}}
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                metrics = run_once(sides[side], name, args.seed + i)
                for metric, value in metrics.items():
                    samples[name][side].setdefault(metric, []).append(value)

    regressions = 0
    print(f"{'workload':15s} {'metric':16s} {'parent median [q1, q3]':>34s} "
          f"{'change median [q1, q3]':>34s} {'wins':>6s}  verdict")
    for name in names:
        for metric, _unit, better, bound in workloads.END_TO_END:
            parent = samples[name]["parent"][metric]
            change = samples[name]["change"][metric]
            outcome = verdict(parent, change, better, bound)
            regressions += outcome == "regression"
            pq, cq = quartiles(parent), quartiles(change)
            print(f"{name:15s} {metric:16s} "
                  f"{pq[1]:12.5g} [{pq[0]:9.5g}, {pq[2]:9.5g}] "
                  f"{cq[1]:12.5g} [{cq[0]:9.5g}, {cq[2]:9.5g}] "
                  f"{wins(parent, change, better):3d}/{len(parent):<2d}  {outcome}")
    out = HERE / "out" / "compare.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"parent": str(sides["parent"]), "change": str(sides["change"]),
                               "pairs": args.pairs, "seed": args.seed,
                               "samples": samples}, indent=1) + "\n")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
