"""One workload in a fresh process (started by ``run.py``).

Protocol on stdin/stdout: the process sets the workload up and prints
``READY <start> <end>``, the ``perf_counter`` instants its set-up began
(before anything but the standard library is imported) and ended; it
then reads one line.  ``GO`` measures and prints ``RESULT <json>``;
``STOP`` (a set-up timing probe) exits.  Every service or pool process
the workload started is stopped and waited for before the result is
printed, so ``peak_rss_mb`` covers them.
"""

from time import perf_counter

STARTED = perf_counter()

import argparse  # noqa: E402  (after the set-up clock starts)
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def peak_rss_mb() -> float:
    """Largest resident set of this process and its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--root", type=Path, required=True)
    parser.add_argument("--work-dir", type=Path, required=True)
    parser.add_argument("--cpus", required=True,
                        help="CPUs to measure on (the set-up runs pinned to one)")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.root / "src"))
    import tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload](
        seed=args.seed, root=args.root, work_dir=args.work_dir
    )
    report = None
    try:
        workload.setup()
        print(f"READY {STARTED!r} {perf_counter()!r}", flush=True)
        if sys.stdin.readline().strip() == "GO":
            os.sched_setaffinity(0, {int(cpu) for cpu in args.cpus.split(",")})
            report = workloads.measure(workload, args.seconds, bool(args.trace))
    finally:
        workload.close()
    if report is None:
        return 0
    if args.trace:
        raw = report.pop("raw_spans")
        n = tracing.write_spans(args.work_dir / "spans.jsonl", raw)
        layers = {"workload": args.workload, "seed": args.seed, "spans_written": n,
                  "per_layer": report["metrics"], **report.pop("trace"),
                  "diagnostics": report["diagnostics"]}
        (args.work_dir / "layers.json").write_text(json.dumps(layers, indent=2) + "\n")
    else:
        report["metrics"]["peak_rss_mb"] = peak_rss_mb()
    print("RESULT " + json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
