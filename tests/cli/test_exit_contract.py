"""The CLI exit-code contract, driven by the command registry.

Exit codes: 0 = success, 1 = tolerance/gate failure, 2 = bad input or
store error, reported on one ``error:`` line.  Every registered command
carries executable :class:`~repro.cli.registry.ExitCase` examples;
parametrizing over the registry means a newly registered command is
covered here with no test edits — and the coverage test below fails if
it ships without cases.
"""

from __future__ import annotations

import shutil

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
def test_exit_case(case, placeholders, capsys):
    argv = [arg.format_map(placeholders) for arg in case.argv]
    capsys.readouterr()
    assert run_cli(argv) == case.expect
    if case.expect == 2:
        captured = capsys.readouterr()
        output = (captured.out + captured.err).splitlines()
        assert len([line for line in output if "error:" in line]) == 1, output


@pytest.mark.parametrize("flag", ["--workers=0", "--segment-records=-5"])
def test_bad_store_build_flag_writes_nothing(flag, contract_dataset, tmp_path):
    target = tmp_path / "events"
    assert run_cli(["store", "build", str(contract_dataset), str(target), flag]) == 2
    assert not target.exists()


def test_a_failed_store_build_is_not_reused(contract_cut_dataset, tmp_path, capsys):
    """A build cut short by a damaged log leaves an empty store, so a rerun
    fails the same way instead of reporting on a partial history."""
    from repro.store import EventStore

    study = ["study", "--dataset", str(contract_cut_dataset), "--scale", "0.004",
             "--seed", "3", "--workers", "1", "--store", str(tmp_path / "s")]
    build = ["store", "build", str(contract_cut_dataset), str(tmp_path / "b")]
    for argv in (study, study, build, build):
        assert run_cli(argv) == 2
        assert "compressed log is truncated" in capsys.readouterr().out
    for name in ("s", "b"):
        assert EventStore.open(tmp_path / name).n_records == 0


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


@pytest.fixture(scope="session")
def nested_dataset(contract_dataset, tmp_path_factory):
    """The contract dataset with an empty directory named like a node log,
    ``sub.log/``, among its logs."""
    directory = tmp_path_factory.mktemp("cli-contract-nested")
    shutil.copy(contract_dataset / "slurm.jsonl", directory)
    shutil.copytree(contract_dataset / "logs", directory / "logs")
    (directory / "logs" / "sub.log").mkdir()
    return directory


@pytest.mark.parametrize("argv", [
    ("monitor", "{}/logs"),
    ("study", "--dataset", "{}", "--scale", "0.004", "--seed", "3"),
    ("serve", "{}/logs", "--duration", "0", "--alerts-jsonl", "{}/../alerts.jsonl"),
], ids=["monitor", "study", "serve"])
def test_a_directory_named_like_a_log_is_skipped(argv, contract_dataset, nested_dataset,
                                                 tmp_path, capsys):
    """Each command reads the directory's log files and nothing else: its
    report (apart from serve's endpoint port) and serve's alert file match
    the run without ``sub.log/``."""
    outputs = []
    for index, base in enumerate((contract_dataset, nested_dataset)):
        work = tmp_path / str(index) / "d"
        work.mkdir(parents=True)
        for entry in base.iterdir():
            (work / entry.name).symlink_to(entry)
        assert run_cli([arg.format(work) for arg in argv]) == 0
        alerts = work.parent / "alerts.jsonl"
        report = [line for line in capsys.readouterr().out.splitlines()
                  if not line.startswith("metrics: http")]
        outputs.append((report, alerts.read_bytes() if alerts.exists() else None))
    assert outputs[0] == outputs[1]
