"""Regenerate the committed golden traces.

Usage (from the repository root)::

    PYTHONPATH=src python tests/golden/regenerate.py

Only run this after an *intentional* scheduler behaviour change; the
point of the suite is that unintentional changes fail the diff.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from golden._harness import (  # noqa: E402
    CASES,
    SVC_GOLDEN,
    golden_path,
    record_events_jsonl,
    record_svc_session,
)


def main() -> int:
    for label in CASES:
        path = golden_path(label)
        path.write_text(record_events_jsonl(label))
        n = len(path.read_text().splitlines())
        print(f"wrote {path} ({n} events)")
    SVC_GOLDEN.write_text(record_svc_session())
    print(f"wrote {SVC_GOLDEN} ({len(SVC_GOLDEN.read_text().splitlines())} events)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
