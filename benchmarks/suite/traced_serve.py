"""``repro serve`` with the benchmark's layer tracing installed.

Runs the package's own ``serve`` command in this process after wrapping
the service, runtime, obs and core entry points (see
:func:`tracing.install`), so the traced server is built exactly as the
untraced one.  When ``POST /shutdown`` ends the command, the span
aggregates go to ``--dump`` as JSON.

    python3 benchmarks/suite/traced_serve.py --root . --dump out.json [serve options]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, required=True, help="repository checkout")
    parser.add_argument("--dump", type=Path, required=True, help="where to write the spans")
    args, serve_args = parser.parse_known_args(argv)
    sys.path.insert(0, str(args.root / "src"))
    import tracing
    from repro.cli import main as repro_main

    tracer = tracing.LayerTracer(process="server")
    tracing.install(tracer, service=True)
    status = repro_main(["serve", *serve_args])
    args.dump.write_text(json.dumps(tracer.snapshot()))
    return status


if __name__ == "__main__":
    sys.exit(main())
