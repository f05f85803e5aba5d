"""Command-line entry point: ``repro-delta``.

Subcommands (one module per subsystem, declared in the command
registry — see :mod:`repro.cli.registry`):

* ``synthesize`` — generate a dataset (logs + Slurm DB) to a directory;
* ``study`` — run the full characterization over a generated dataset (or
  synthesize one in-memory) and print the paper-style report;
* ``experiment`` — run one registered table/figure experiment (or
  ``--all``);
* ``verify`` — check measured metrics against the paper's tolerance bands
  and exit non-zero on any miss;
* ``overprovision`` — run the Section-5.4 sweep;
* ``figures`` — render the study's SVG charts;
* ``simulate`` — the Monte-Carlo what-if engine;
* ``monitor`` / ``serve`` — the live watchdog and fleet health service;
* ``store`` — build / inspect / query the persistent columnar event
  store (``store build|stats|query|compact``);
* ``replay`` — deterministic replay & backtest over stored history;
* ``trace`` — aggregate a ``--trace`` directory: per-subsystem wall
  time, span trees, Chrome trace-event export
  (``trace summary|tree|export``).

Every run-wiring command goes through the session layer
(:mod:`repro.session`): ``study``, ``experiment`` and ``verify`` accept
``--store DIR`` (read-through: the store is built from the dataset on
first use and reused — Stage I becomes a columnar decode — with the
store content hash recorded in the run manifest), ``--workers N``
(Stage-I extraction parallelism) and ``--jobs N`` (independent
experiments fanned over a process pool; results and reports are
byte-identical to a serial run).

``study``, ``experiment`` and ``simulate`` accept ``--format text|json``
and ``--output-dir DIR`` (which writes ``result.json`` + ``manifest.json``
per run, plus ``result.svg`` where a chart is meaningful); ``verify
--output-dir DIR`` archives the same artifacts per verified experiment.

``study``, ``experiment``, ``verify``, ``simulate``, ``store`` and
``replay`` accept ``--trace DIR`` (on ``store``/``replay`` it goes
*before* the nested subcommand): the run writes a hierarchical span
trace into DIR — one JSONL file per participating process, fan-out
workers included — without changing a single output byte.  Inspect with
``repro-delta trace summary|tree|export DIR``.

Exit codes: 0 = success, 1 = a tolerance/gate failure (``verify``),
2 = bad input (a truncated or damaged ``.log.gz`` included), a store
error or a dead worker process.
"""

from __future__ import annotations

from typing import List, Optional

# Importing the command modules registers their commands; registration
# order is presentation order in --help.
from repro.cli import experiment as _experiment  # noqa: F401
from repro.cli import fleet as _fleet  # noqa: F401
from repro.cli import replay as _replay  # noqa: F401
from repro.cli import sim as _sim  # noqa: F401
from repro.cli import store as _store  # noqa: F401
from repro.cli import study as _study  # noqa: F401
from repro.cli import trace as _trace  # noqa: F401
from repro.cli.registry import COMMANDS, CliError, build_parser


def main(argv: Optional[List[str]] = None) -> int:
    from repro import obs
    from repro.session import SessionError
    from repro.slurm.accounting import SlurmFileError
    from repro.store import StoreError
    from repro.syslog.reader import CorruptLogError
    from repro.util.fanout import FanoutError

    parser = build_parser(__doc__)
    args = parser.parse_args(argv)
    command = COMMANDS.get(args.command)
    if command is None:
        return 2
    trace_dir = getattr(args, "trace", None)
    try:
        if trace_dir is not None:
            obs.activate(trace_dir)
            with obs.span(f"cli.{args.command}"):
                return command.run(args)
        return command.run(args)
    except (CliError, SessionError, StoreError, FanoutError, CorruptLogError,
            SlurmFileError) as error:
        print(f"error: {error}")
        return 2
    finally:
        obs.deactivate()
