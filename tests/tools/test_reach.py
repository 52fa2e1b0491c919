"""The reach gate's static side (``tools/reach.py``), without tracing:
the allowlist names real functions with reasons, and the line counter
maps code objects to definitions the way Python numbers them."""

import ast
import importlib.util
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
_spec = importlib.util.spec_from_file_location("reach", ROOT / "tools" / "reach.py")
reach = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reach)

FIXTURE = textwrap.dedent('''\
    import functools


    def called():
        def inner_unreached():
            return 1
        return 2


    @functools.lru_cache(maxsize=None)
    def decorated_unreached():
        def nested():
            def deeper():
                return 3
            return deeper
        return nested


    class Box:
        def method(self):
            return 4

        @property
        def size(self):
            return 5
''')


def test_unreached_functions_count_from_first_decorator_and_nest_once():
    reached = {(4, "called"), (20, "method")}
    found = reach.unreached_functions(ast.parse(FIXTURE), reached)
    assert found == [
        ("called.<locals>.inner_unreached", 2),
        ("decorated_unreached", 7),  # lines 10-16; nested and deeper inside it
        ("Box.size", 3),  # the @property line included
    ]
    assert sum(lines for _, lines in found) == 12


def test_definition_lines_match_code_objects():
    ns = {}
    exec(compile(FIXTURE, "fixture", "exec"), ns)
    codes = [ns["called"].__code__, ns["decorated_unreached"].__wrapped__.__code__,
             ns["Box"].method.__code__, ns["Box"].size.fget.__code__]
    keys = {(first, node.name) for _, first, node in reach._definitions(ast.parse(FIXTURE), "")}
    assert {(c.co_firstlineno, c.co_name) for c in codes} == keys


def test_every_allowlist_entry_names_a_package_function_with_a_reason():
    entries = reach.load_allowlist()
    assert entries
    defined = {rel: reach.defined_functions(tree) for rel, tree in reach.package_sources()}
    for entry, reason in entries.items():
        path, _, qualname = entry.partition("::")
        assert qualname in defined.get(path, set()), entry
        assert reason, entry


def test_allowlist_entry_without_reason_is_rejected(tmp_path):
    path = tmp_path / "allow.txt"
    path.write_text("src/repro/cli.py::main\n")
    with pytest.raises(ValueError, match="no reason"):
        reach.load_allowlist(path)
