"""The documentation's code must run.

Executes every ```python``` block in docs/tutorial.md (in order, in one
shared namespace) and the README quickstart, with scaled-down horizons
so the suite stays fast.  Documentation that drifts from the API fails
here first.
"""

import contextlib
import io
import re
from pathlib import Path


ROOT = Path(__file__).resolve().parents[2]


def _python_blocks(path: Path):
    text = path.read_text(encoding="utf-8")
    return re.findall(r"```python\n(.*?)```", text, re.S)


def _shrink(code: str) -> str:
    """Scale long horizons down for test speed (60 s -> 3 s)."""
    return code.replace("horizon=60.0", "horizon=3.0").replace("60.0,", "3.0,").replace(
        "(10.0, 30.0, 60.0)", "(1.0, 2.0, 3.0)"
    )


class TestTutorial:
    def test_all_blocks_execute(self):
        blocks = _python_blocks(ROOT / "docs" / "tutorial.md")
        assert len(blocks) >= 7
        ns = {}
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink):
            for block in blocks:
                exec(compile(_shrink(block), "tutorial.md", "exec"), ns)
        out = sink.getvalue()
        assert "battery multiplier" in out
        assert "audit: OK" in out


class TestObservability:
    def test_all_blocks_execute(self):
        blocks = _python_blocks(ROOT / "docs" / "observability.md")
        assert len(blocks) >= 6
        ns = {}
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink):
            for block in blocks:
                exec(compile(_shrink(block), "observability.md", "exec"), ns)
        out = sink.getvalue()
        assert "frequency decisions" in out
        assert "fleet dispatches" in out
        assert "decide_freq" in out  # the profiler and summary sections
        assert "phase table" in out  # the span-tracing section
        assert "phase coverage" in out


class TestPerformance:
    def test_all_blocks_execute(self):
        blocks = _python_blocks(ROOT / "docs" / "performance.md")
        assert blocks, "performance doc must contain a runnable example"
        ns = {}
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink):
            for block in blocks:
                exec(compile(_shrink(block), "performance.md", "exec"), ns)
        assert "[" in sink.getvalue()  # the printed per-load utility list


class TestRuntimeDoc:
    def test_all_blocks_execute(self):
        blocks = _python_blocks(ROOT / "docs" / "runtime.md")
        assert blocks, "runtime doc must contain a runnable example"
        ns = {}
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink):
            for block in blocks:
                exec(compile(_shrink(block), "runtime.md", "exec"), ns)
        out = sink.getvalue()
        assert "reallocations:" in out
        # The drift scenario really adapts — the doc's claim is live.
        assert not out.strip().endswith("reallocations: 0")


class TestStatisticsDoc:
    def test_all_blocks_execute(self):
        blocks = _python_blocks(ROOT / "docs" / "statistics.md")
        assert len(blocks) >= 4
        ns = {}
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink):
            for block in blocks:
                exec(compile(_shrink(block), "statistics.md", "exec"), ns)
        out = sink.getvalue()
        assert "verdict:" in out
        assert "stopped early: True" in out
        assert "warm simulated 0" in out
        assert "[0.902, 0.984]" in out  # the Wilson example straddles rho


class TestArrivalsDoc:
    def test_all_blocks_execute(self):
        blocks = _python_blocks(ROOT / "docs" / "arrivals.md")
        assert len(blocks) >= 5
        ns = {}
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink):
            for block in blocks:
                exec(compile(_shrink(block), "arrivals.md", "exec"), ns)
        out = sink.getvalue()
        assert "workload shapes:" in out
        assert "compliant: True" in out            # thinning honours the spec
        assert "config round-trip bit-identical: True" in out
        assert "custom shape compliant: True" in out  # registration demo
        assert "threshold" in out                  # the phase-map example ran


class TestTestingDoc:
    def test_all_blocks_execute(self):
        blocks = _python_blocks(ROOT / "docs" / "testing.md")
        assert blocks, "testing doc must contain a runnable checker example"
        ns = {}
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink):
            for block in blocks:
                exec(compile(_shrink(block), "testing.md", "exec"), ns)
        assert "invariants clean" in sink.getvalue()


class TestReadme:
    def test_quickstart_block_executes(self):
        blocks = _python_blocks(ROOT / "README.md")
        assert blocks, "README must contain a python quickstart"
        ns = {}
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink):
            exec(compile(_shrink(blocks[0].replace("horizon=10.0", "horizon=2.0")),
                         "README.md", "exec"), ns)
        assert "EDF" in sink.getvalue()
