"""Declarative command registry for ``repro-delta``.

Every subcommand is a :class:`Command`: a name, a help line, a handler,
a :class:`Flags` declaration of which *shared* flag groups it takes, an
optional ``configure`` hook for command-specific arguments, and a tuple
of :class:`ExitCase` examples pinning the exit-code contract (0 =
success, 1 = tolerance/gate failure, 2 = bad input or store error).

The shared flag groups — run knobs (``--scale``/``--seed``), extraction
``--workers``, fan-out ``--jobs``, ``--store`` read-through and
``--format``/``--output-dir`` — are declared *once* here; command
modules never hand-roll them.  :func:`build_parser` assembles the full
argparse tree from the registry, and the exit-code test suite iterates
``COMMANDS`` so a newly registered command is covered automatically.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Optional, Tuple


class CliError(Exception):
    """Bad input detected by a command handler; exits with code 2."""


def require_positive(flag: str, value: Optional[int]) -> None:
    """Reject a count flag below 1 before the command does any work."""
    if value is not None and value < 1:
        raise CliError(f"{flag} must be >= 1, got {value}")


@dataclass(frozen=True)
class ExitCase:
    """One executable example of the exit-code contract.

    ``argv`` may reference fixture placeholders (``{dataset}``,
    ``{logs}``, ``{built_store}``, ``{demo_store}``, ``{tmp}``,
    ``{absent}``) that the contract tests resolve against a small
    shared dataset.
    """

    label: str
    argv: Tuple[str, ...]
    expect: int


@dataclass(frozen=True)
class Flags:
    """Which shared flag groups a command takes."""

    scale: bool = False
    #: Default value for ``--seed`` (``None`` = the command has no seed).
    seed: Optional[int] = None
    #: Help text for ``--workers`` (``None`` = no flag).  The flag's
    #: default is ``None`` ("all cores"), resolved by ``RunConfig``.
    workers: Optional[str] = None
    jobs: bool = False
    store: bool = False
    output: bool = False
    trace: bool = False


@dataclass(frozen=True)
class Command:
    name: str
    help: str
    run: Callable[[argparse.Namespace], int]
    flags: Flags = field(default_factory=Flags)
    configure: Optional[Callable[[argparse.ArgumentParser], None]] = None
    cases: Tuple[ExitCase, ...] = ()


#: Registration order is presentation order in ``--help``.
COMMANDS: Dict[str, Command] = {}


def register(command: Command) -> Command:
    if command.name in COMMANDS:
        raise ValueError(f"command {command.name!r} registered twice")
    COMMANDS[command.name] = command
    return command


# ---------------------------------------------------------------------------
# The shared flag groups (each exists exactly once, here)
# ---------------------------------------------------------------------------


def add_common(
    parser: argparse.ArgumentParser, *, scale: bool = True, seed: int = 7
) -> None:
    """The shared run knobs; every subcommand gets its seed from here."""
    if scale:
        parser.add_argument("--scale", type=float, default=0.05,
                            help="observation-window scale "
                            "(1.0 = the paper's 855 days)")
    parser.add_argument("--seed", type=int, default=seed)


def add_workers(parser: argparse.ArgumentParser, help_text: str) -> None:
    parser.add_argument("--workers", type=int, default=None, help=help_text)


def add_jobs(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--jobs", type=int, default=1,
                        help="run experiments over this many worker "
                        "processes (results and reports are byte-identical "
                        "for any job count)")


def add_store(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--store", type=Path, default=None, metavar="DIR",
                        help="read records through a columnar event store "
                        "at DIR (built from the dataset on first use, "
                        "reused thereafter)")


def add_output(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("text", "json"), default="text",
                        help="print the paper-style text or the structured "
                        "JSON artifact")
    parser.add_argument("--output-dir", type=Path, default=None,
                        help="also write result.json + manifest.json "
                        "(+ result.svg where applicable) per run")


def add_trace(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--trace", type=Path, default=None, metavar="DIR",
                        help="write a span/counter trace of this run into "
                        "DIR (JSONL, one file per process; inspect with "
                        "'repro-delta trace'; never changes results)")


def _apply_flags(parser: argparse.ArgumentParser, flags: Flags) -> None:
    if flags.scale or flags.seed is not None:
        add_common(parser, scale=flags.scale,
                   seed=flags.seed if flags.seed is not None else 7)
    if flags.workers is not None:
        add_workers(parser, flags.workers)
    if flags.jobs:
        add_jobs(parser)
    if flags.store:
        add_store(parser)
    if flags.output:
        add_output(parser)
    if flags.trace:
        add_trace(parser)


# ---------------------------------------------------------------------------
# Parser assembly
# ---------------------------------------------------------------------------


def build_parser(description: str) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-delta", description=description
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command in COMMANDS.values():
        command_parser = sub.add_parser(command.name, help=command.help)
        _apply_flags(command_parser, command.flags)
        if command.configure is not None:
            command.configure(command_parser)
    return parser
