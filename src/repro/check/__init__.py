"""Correctness tooling: invariant checking + differential fuzzing.

Two halves (see ``docs/testing.md``):

* :class:`InvariantChecker` — an observe-only engine hook layer that
  re-derives every scheduling decision from first principles, then
  runs :func:`audit` once over the finished run's recorded segments,
  jobs and processor accounting (uniprocessor, partitioned and global
  alike), and raises a typed :class:`InvariantViolation` on
  disagreement;
* :func:`run_fuzz` — an adversarial scenario generator that runs the
  scheduler zoo under the checker plus cross-scheduler metamorphic
  oracles, shrinking failures to minimal corpus repro files.
"""

from .audit import audit, check_mp_result
from .corpus import CorpusCase, load_case, replay_case, save_case
from .fuzzer import FuzzFinding, FuzzReport, Scenario, run_check, run_fuzz
from .invariants import InvariantChecker, InvariantViolation
from .shrink import shrink_workload

__all__ = [
    "CorpusCase",
    "FuzzFinding",
    "FuzzReport",
    "InvariantChecker",
    "InvariantViolation",
    "Scenario",
    "audit",
    "check_mp_result",
    "load_case",
    "replay_case",
    "run_check",
    "run_fuzz",
    "save_case",
    "shrink_workload",
]
