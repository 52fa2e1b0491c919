"""Reach gate: every function in ``src/repro`` has an entry point that calls it.

Runs the package's entry points -- the CLI invocations in ``CLI``, the
scheduler service driven over HTTP, ``examples/*.py``, every
``benchmarks/bench_*.py`` and the documentation blocks that
``tests/experiments/test_docs.py`` executes -- with a generated
``sitecustomize`` on ``PYTHONPATH`` that installs a profile hook in every
Python process they start (pool workers and the ``serve`` subprocess
included).  The reached code objects are mapped to the function
definitions in ``src/repro``, each spanning its first decorator to its
last line; a nested function inside an unreached one counts once.

Prints the never-called line count and exits 1 if a function no entry
point calls is neither a display dunder (``__repr__``/``__str__``) nor
listed in ``tools/reach_allowlist.txt`` (``path::qualname  # reason``).
Run from anywhere; it takes several minutes::

    python tools/reach.py
"""

from __future__ import annotations

import ast
import json
import os
import shlex
import subprocess
import sys
import tempfile
import time
import urllib.request
from pathlib import Path
from typing import Dict, Iterator, List, Set, Tuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PACKAGE = SRC / "repro"
ALLOWLIST = ROOT / "tools" / "reach_allowlist.txt"
EXEMPT = {"__repr__", "__str__"}

#: ``python -m repro`` invocations, run in a scratch working directory.
CLI = (
    "table1", "table2", "schedulers", "arrivals",
    "theorems --load 0.5",
    "bound --load 0.5 --horizon 1.0",
    "figure2 --loads 0.4 1.2 --seeds 1 --horizon 0.5 --svg fig2",
    "figure2 --energy E3 --loads 0.6 1.6 --seeds 1 --horizon 0.5 --workers 2",
    "figure3 --loads 0.8 --seeds 1 --horizon 0.5 --svg fig3.svg",
    "mp --smoke",
    "mp --cores 2 --modes partitioned global --loads 0.8 --seeds 1 --horizon 0.5 --svg mp",
    "simulate --load 0.8 --horizon 1.0",
    "simulate --tuf linear --nu 0.3 --horizon 0.5",
    "simulate --tuf linear --horizon 0.5",
    "simulate --arrivals burst --load 1.2 --horizon 0.5 --workers 2",
    "ablate dvs --seeds 1 --horizon 0.5",
    "ablate fopt --seeds 1 --horizon 0.5",
    "ablate dvs-method --seeds 1 --horizon 0.5",
    "ablate dasa --seeds 1 --horizon 0.5",
    "sensitivity rho --seeds 1 --horizon 0.5",
    "sensitivity size --seeds 1 --horizon 0.5",
    "sensitivity ladder --seeds 1 --horizon 0.5",
    "trace --load 0.8 --limit 12",
    "trace --jsonl",
    "trace --decisions --out decisions.jsonl",
    "check --scheduler EUA*",
    "check --scheduler DASA --arrivals burst --tuf linear",
    f"check --corpus {ROOT / 'tests' / 'corpus'}",
    "fuzz --budget 6 --seed 11 --no-corpus",
    "fuzz --budget 4 --seed 3 --registry-shapes --no-corpus --verbose",
    "obs --load 1.2 --repeats 2 --dashboard obs.svg",
    "stats --load 0.8 -n 4 --horizon 0.5 --cache-dir cache --spans --dashboard stats.svg",
    "stats --load 0.8 -n 4 --horizon 0.5 --cache-dir cache --spans --dashboard stats.svg",
    "stats --load 0.8 -n 4 --horizon 0.5 --cores 2 --mp-mode global",
    "stats --load 0.8 -n 8 --horizon 0.5 --early-stop --min-replications 4 "
    "--check-every 2 --workers 2",
    "threshold --smoke --bench --svg phase.svg",
    "profile --load 0.8 -n 4 --horizon 0.5 --jsonl-out profile.jsonl "
    "--dashboard profile.svg",
    "runtime --scenario drift --horizon 2.0",
    "runtime --scenario uam-burst --policy defer",
    "runtime --detector cusum",
    "loadtest --smoke",
    "loadtest --smoke --bench",
)

_SITECUSTOMIZE = '''\
import os, sys, threading

_FD = os.open(os.path.join({out!r}, "%d.tsv" % os.getpid()),
              os.O_WRONLY | os.O_CREAT | os.O_APPEND)
_seen = {{}}


def _hook(frame, event, arg):
    if event == "call":
        code = frame.f_code
        if id(code) not in _seen:
            _seen[id(code)] = code  # kept alive, so its id is never reused
            if code.co_filename.startswith({prefix!r}):
                os.write(_FD, ("%s\\t%d\\t%s\\n" % (
                    code.co_filename, code.co_firstlineno, code.co_name)).encode())


sys.setprofile(_hook)
threading.setprofile(_hook)
'''


# ----------------------------------------------------------------------
# Static side: function definitions and the lines they span
# ----------------------------------------------------------------------
def _definitions(node: ast.AST, prefix: str) -> Iterator[Tuple[str, int, ast.AST]]:
    """``(qualname, first line, node)`` of each function in ``node``'s
    own scope (class bodies and compound statements included)."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            decorators = child.decorator_list
            yield prefix + child.name, (decorators[0] if decorators else child).lineno, child
        elif isinstance(child, ast.ClassDef):
            yield from _definitions(child, prefix + child.name + ".")
        else:
            yield from _definitions(child, prefix)


def unreached_functions(
    tree: ast.AST, reached: Set[Tuple[int, str]], prefix: str = ""
) -> List[Tuple[str, int]]:
    """``(qualname, lines)`` of each function in ``tree`` whose
    ``(first line, name)`` is not in ``reached``.  A function spans its
    first decorator to its last line; functions nested inside an
    unreached one are part of its span, not listed again."""
    found: List[Tuple[str, int]] = []
    for qualname, first, node in _definitions(tree, prefix):
        if (first, node.name) in reached:
            found += unreached_functions(node, reached, qualname + ".<locals>.")
        else:
            found.append((qualname, node.end_lineno - first + 1))
    return found


def defined_functions(tree: ast.AST, prefix: str = "") -> Set[str]:
    """Every function qualname defined in ``tree``, nested ones included."""
    names: Set[str] = set()
    for qualname, _, node in _definitions(tree, prefix):
        names.add(qualname)
        names |= defined_functions(node, qualname + ".<locals>.")
    return names


def package_sources() -> Iterator[Tuple[str, ast.Module]]:
    """``(repo-relative path, parsed module)`` for each file in ``src/repro``."""
    for path in sorted(PACKAGE.rglob("*.py")):
        yield path.relative_to(ROOT).as_posix(), ast.parse(path.read_text(), str(path))


def load_allowlist(path: Path = ALLOWLIST) -> Dict[str, str]:
    """``path::qualname`` -> reason, one entry per non-blank line."""
    entries: Dict[str, str] = {}
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        entry, _, reason = line.partition("#")
        if not reason.strip():
            raise ValueError(f"{path.name}:{lineno}: {entry.strip()} has no reason")
        entries[entry.strip()] = reason.strip()
    return entries


# ----------------------------------------------------------------------
# Dynamic side: run every entry point under the hook
# ----------------------------------------------------------------------
def _run(label: str, argv: List[str], cwd: Path, env: Dict[str, str]) -> None:
    start = time.perf_counter()
    proc = subprocess.run(argv, cwd=cwd, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True)
    print(f"  exit {proc.returncode}  {time.perf_counter() - start:6.1f}s  {label}",
          flush=True)
    if proc.returncode:
        print("    " + "\n    ".join(proc.stderr.splitlines()[-3:]), flush=True)


def _drive_service(cwd: Path, env: Dict[str, str]) -> None:
    """``serve`` on an ephemeral port, driven through every route."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-u", "-m", "repro", "serve", "--host", "127.0.0.1", "--port", "0",
         "--rate", "5"],
        cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
    )
    try:
        # "serving N tasks at http://127.0.0.1:PORT (...)"
        port = int(proc.stdout.readline().split(" at ", 1)[1].split()[0].rsplit(":", 1)[1])
        base = f"http://127.0.0.1:{port}"

        def call(method: str, route: str, body: object = None) -> bytes:
            data = None if body is None else json.dumps(body).encode()
            request = urllib.request.Request(base + route, data=data, method=method)
            with urllib.request.urlopen(request, timeout=60) as response:
                return response.read()

        tasks = [t["name"] for t in json.loads(call("GET", "/tasks"))]
        call("POST", "/jobs", {"task": tasks[0]})
        call("POST", "/jobs/batch", [{"task": name} for name in tasks])
        time.sleep(1.0)
        call("GET", "/events")
        call("GET", "/stats")
        call("POST", "/shutdown")
        rc = proc.wait(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            rc = proc.wait()
    print(f"  exit {rc}  {time.perf_counter() - start:6.1f}s  serve "
          "(/tasks, /jobs, /jobs/batch, /events, /stats, /shutdown)", flush=True)


def trace_entry_points(work: Path) -> Dict[str, Set[Tuple[int, str]]]:
    """Run every entry point; repo-relative path -> reached (line, name)."""
    hook, out, scratch = work / "hook", work / "reached", work / "cwd"
    for d in (hook, out, scratch):
        d.mkdir()
    (hook / "sitecustomize.py").write_text(
        _SITECUSTOMIZE.format(out=str(out), prefix=str(PACKAGE) + os.sep)
    )
    env = dict(os.environ, PYTHONPATH=f"{hook}{os.pathsep}{SRC}",
               REPRO_BENCH_ARTIFACTS=str(scratch / "artifacts"))
    for key in ("REPRO_BENCH_LOADS", "REPRO_BENCH_HORIZON", "REPRO_BENCH_SEEDS"):
        env.pop(key, None)
    py = sys.executable
    pytest = [py, "-m", "pytest", "-q", "-p", "no:cacheprovider", "--benchmark-disable"]

    print("CLI:", flush=True)
    for line in CLI:
        _run(line, [py, "-m", "repro", *shlex.split(line)], scratch, env)
    _drive_service(scratch, env)
    print("examples, benchmarks and documentation blocks:", flush=True)
    for script in sorted((ROOT / "examples").glob("*.py")):
        _run(script.name, [py, str(script)], ROOT, env)
    for bench in sorted((ROOT / "benchmarks").glob("bench_*.py")):
        if "__main__" in bench.read_text():
            _run(bench.name, [py, str(bench)], ROOT, env)
        else:
            _run(bench.name, [*pytest, str(bench)], ROOT, env)
    _run("test_docs.py", [*pytest, "tests/experiments/test_docs.py"], ROOT, env)

    reached: Dict[str, Set[Tuple[int, str]]] = {}
    for record in out.glob("*.tsv"):
        for row in record.read_text().splitlines():
            filename, first, name = row.split("\t")
            rel = Path(filename).resolve().relative_to(ROOT).as_posix()
            reached.setdefault(rel, set()).add((int(first), name))
    return reached


def main() -> int:
    allowlist = load_allowlist()
    with tempfile.TemporaryDirectory(prefix="reach-") as work:
        reached = trace_entry_points(Path(work))
    lines = 0
    unexcused: List[str] = []
    for rel, tree in package_sources():
        for qualname, span in unreached_functions(tree, reached.get(rel, set())):
            lines += span
            entry = f"{rel}::{qualname}"
            if entry not in allowlist and qualname.rpartition(".")[2] not in EXEMPT:
                unexcused.append(f"{entry}  ({span} lines)")
    print(f"never-called function lines: {lines}")
    for entry in unexcused:
        print(f"UNREACHED: {entry}")
    return 1 if unexcused else 0


if __name__ == "__main__":
    sys.exit(main())
