"""The ``repro`` command-line surface, pinned against a committed snapshot.

``cli_surface.json`` records every subcommand (in ``--help`` order, with
its one-line help) and each of its options in declaration order: option
strings, dest, default, nargs, choices, metavar, required and help.
``--arrivals`` defaults are recorded by their ``ArrivalShape`` label.
Argument *types* are not recorded, so tightening a validator does not
move the snapshot; renaming, reordering or re-defaulting an option does.

Regenerate after an intended surface change with::

    PYTHONPATH=src python tests/experiments/test_cli_surface.py --update
"""

import json
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser

SNAPSHOT = Path(__file__).with_name("cli_surface.json")


def _jsonable(value):
    if hasattr(value, "label") and hasattr(value, "params"):  # ArrivalShape
        return value.label
    if isinstance(value, tuple):
        return list(value)
    return value


def _option(action) -> dict:
    return {
        "option_strings": list(action.option_strings),
        "dest": action.dest,
        "default": _jsonable(action.default),
        "nargs": action.nargs,
        "choices": None if action.choices is None else list(action.choices),
        "metavar": _jsonable(action.metavar),
        "required": action.required,
        "help": action.help,
    }


def cli_surface() -> dict:
    parser = build_parser()
    (sub,) = [a for a in parser._actions if a.dest == "command"]
    return {
        "prog": parser.prog,
        "description": parser.description,
        "commands": [
            {
                "name": choice.dest,
                "help": choice.help,
                "options": [_option(a) for a in sub.choices[choice.dest]._actions],
            }
            for choice in sub._choices_actions
        ],
    }


def test_surface_matches_snapshot():
    expected = json.loads(SNAPSHOT.read_text())
    actual = json.loads(json.dumps(cli_surface()))
    assert [c["name"] for c in actual["commands"]] == [
        c["name"] for c in expected["commands"]
    ]
    for want, got in zip(expected["commands"], actual["commands"]):
        assert got == want, want["name"]
    assert actual == expected


@pytest.mark.parametrize("argv, message", [
    (["loadtest", "--address", "localhost"], "argument --address: expected HOST:PORT"),
    (["loadtest", "--address", "127.0.0.1:notaport"], "argument --address: expected HOST:PORT"),
    (["mp", "--cores", "0"], "argument --cores: expected an integer >= 1"),
    (["stats", "--cores", "0"], "argument --cores: expected an integer >= 1"),
], ids=["address-without-port", "address-bad-port", "mp-zero-cores", "stats-zero-cores"])
def test_bad_input_is_a_usage_error(argv, message, capsys):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: ") and message in err


if __name__ == "__main__":
    if sys.argv[1:] != ["--update"]:
        sys.exit("usage: test_cli_surface.py --update")
    SNAPSHOT.write_text(json.dumps(cli_surface(), indent=1) + "\n")
    print(f"wrote {SNAPSHOT}")
