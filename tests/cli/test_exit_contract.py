"""The CLI exit-code contract, driven by the command registry.

Exit codes: 0 = success, 1 = tolerance/gate failure, 2 = bad input or
store error.  Every registered command carries executable
:class:`~repro.cli.registry.ExitCase` examples; parametrizing over the
registry means a newly registered command is covered here with no test
edits — and the coverage test below fails if it ships without cases.
"""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.cli.registry import COMMANDS

CASES = [
    pytest.param(case, id=f"{name}-{case.expect}-{case.label}")
    for name, command in COMMANDS.items()
    for case in command.cases
]


def run_cli(argv):
    """Run ``main`` mapping argparse's ``SystemExit`` to its code."""
    try:
        return main(argv)
    except SystemExit as error:  # argparse rejects bad/missing arguments
        return int(error.code or 0)


@pytest.mark.parametrize("case", CASES)
def test_exit_case(case, placeholders):
    argv = [arg.format_map(placeholders) for arg in case.argv]
    assert run_cli(argv) == case.expect


@pytest.mark.parametrize("flag", ["--workers=0", "--segment-records=-5"])
def test_bad_store_build_flag_writes_nothing(flag, contract_dataset, tmp_path):
    target = tmp_path / "events"
    assert run_cli(["store", "build", str(contract_dataset), str(target), flag]) == 2
    assert not target.exists()


def test_every_command_declares_the_contract():
    """Each command pins at least a success and a bad-input example."""
    for name, command in COMMANDS.items():
        expects = {case.expect for case in command.cases}
        assert 0 in expects, f"{name} has no exit-0 case"
        assert 2 in expects, f"{name} has no exit-2 case"
    assert 1 in {c.expect for c in COMMANDS["verify"].cases}, \
        "verify must pin the gate-failure (exit 1) path"


def test_registry_is_complete():
    """The parser and the registry agree on the command set."""
    expected = {"synthesize", "study", "overprovision", "figures",
                "experiment", "verify", "simulate", "monitor", "serve",
                "store", "replay", "trace"}
    assert set(COMMANDS) == expected


def test_unknown_command_exits_2():
    assert run_cli(["frobnicate"]) == 2
