"""Experiment execution and the paper-fidelity gate: experiment, verify.

Both commands run through the session layer, so Stage-I extraction
honours ``--workers`` and ``--jobs N`` fans independent experiments over
a process pool — with reports byte-identical to a serial run.
"""

from __future__ import annotations

import argparse
from pathlib import Path

from repro.cli.common import emit_result, write_result_dir
from repro.cli.registry import CliError, Command, ExitCase, Flags, register, require_positive

_WORKERS_HELP = ("processes for sharded log extraction over an on-disk "
                 "--dataset or --store build (identical results for any "
                 "count)")


def _configure_experiment(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("id", nargs="?", default=None,
                        help="experiment id (omit to list)")
    parser.add_argument("--all", action="store_true",
                        help="run every registered experiment")
    parser.add_argument("--dataset", type=Path, default=None,
                        help="directory written by 'synthesize' "
                        "(default: in-memory)")


def _cmd_experiment(args: argparse.Namespace) -> int:
    from repro.experiments import EXPERIMENTS, list_experiments
    from repro.session import Session

    if args.all and args.id is not None:
        raise CliError("pass an experiment id or --all, not both")
    if args.id is None and not args.all:
        # Listing mode: flags that only affect a *run* would be silently
        # ignored — reject the combination instead of surprising the user.
        ignored = [flag for flag, value in (
            ("--store", args.store),
            ("--output-dir", args.output_dir),
            ("--dataset", args.dataset),
        ) if value is not None]
        if args.jobs != 1:
            ignored.append("--jobs")
        if ignored:
            raise CliError(
                f"{', '.join(ignored)} has no effect without an experiment "
                "id (pass an id, or --all to run every experiment)"
            )
        for experiment in list_experiments():
            marker = "*" if experiment.verified else " "
            print(f"{experiment.identifier:<16} "
                  f"{experiment.paper_artifact:<22} "
                  f"{marker} {experiment.description}")
        return 0

    identifiers = ([e.identifier for e in list_experiments()] if args.all
                   else [args.id])
    unknown = [i for i in identifiers if i not in EXPERIMENTS]
    if unknown:
        raise CliError(f"unknown experiment ids: {', '.join(unknown)}")

    session = Session.from_args(args)
    results = session.run_many(identifiers)
    if args.all:
        if args.output_dir is not None:
            for result in results:
                write_result_dir(result, args.output_dir)
        if args.format == "json":
            import json as _json

            print(_json.dumps([r.to_dict() for r in results], indent=2))
        else:
            print("\n\n".join(r.render_text() for r in results))
        return 0
    emit_result(results[0], args)
    return 0


def _configure_verify(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("ids", nargs="*", default=[],
                        help="experiment ids to verify (default: all "
                        "tolerance-annotated experiments)")
    parser.add_argument("--dataset", type=Path, default=None,
                        help="directory written by 'synthesize' "
                        "(default: in-memory)")
    parser.add_argument("--tolerance-scale", type=float, default=1.0,
                        help="widen every band by this factor (small-scale "
                        "smoke runs need slack)")
    parser.add_argument("--min-support", type=int, default=None,
                        help="skip checks whose metric was estimated from "
                        "fewer samples than this")
    parser.add_argument("--output-dir", type=Path, default=None,
                        help="also write result.json + manifest.json per "
                        "verified experiment (CI artifact archival)")


def _cmd_verify(args: argparse.Namespace) -> int:
    from repro.experiments import EXPERIMENTS, verified_experiments
    from repro.results import DEFAULT_MIN_SUPPORT, verify_results
    from repro.session import Session

    require_positive("--tolerance-scale", args.tolerance_scale)
    if args.ids:
        unknown = [i for i in args.ids if i not in EXPERIMENTS]
        if unknown:
            raise CliError(f"unknown experiment ids: {', '.join(unknown)}")
        identifiers = list(args.ids)
    else:
        identifiers = [e.identifier for e in verified_experiments()]
    min_support = (DEFAULT_MIN_SUPPORT if args.min_support is None
                   else args.min_support)

    session = Session.from_args(args)
    results = session.run_many(identifiers)
    if args.output_dir is not None:
        for result in results:
            write_result_dir(result, args.output_dir)
    report = verify_results(
        results,
        tolerance_scale=args.tolerance_scale,
        min_support=min_support,
    )
    print(report.render_table())
    if not report.ok:
        print(f"\nFAIL: {report.n_fail} metric(s) outside their paper "
              "tolerance bands")
        return 1
    return 0


register(Command(
    name="experiment",
    help="run one registered table/figure experiment (--all for every one)",
    run=_cmd_experiment,
    flags=Flags(scale=True, workers=_WORKERS_HELP, jobs=True, store=True,
                output=True, trace=True),
    configure=_configure_experiment,
    cases=(
        ExitCase("lists experiments", ("experiment",), 0),
        ExitCase("runs one experiment",
                 ("experiment", "fig5", "--scale", "0.004", "--seed", "3"), 0),
        ExitCase("unknown id",
                 ("experiment", "nope", "--scale", "0.004"), 2),
        ExitCase("run flags without an id",
                 ("experiment", "--output-dir", "{tmp}/out"), 2),
        ExitCase("id and --all together",
                 ("experiment", "fig5", "--all"), 2),
        ExitCase("--dataset without slurm.jsonl",
                 ("experiment", "fig5", "--dataset", "{logs}",
                  "--scale", "0.004"), 2),
        ExitCase("slurm.jsonl cut mid-line",
                 ("experiment", "table2", "--dataset", "{bad_slurm}/cut",
                  "--scale", "0.004"), 2),
        ExitCase("slurm.jsonl is a directory",
                 ("experiment", "table2", "--dataset", "{bad_slurm}/dir",
                  "--scale", "0.004"), 2),
        ExitCase("logs is a file",
                 ("experiment", "table2", "--dataset", "{logs_file}",
                  "--scale", "0.004"), 2),
    ),
))

register(Command(
    name="verify",
    help="run the tolerance-annotated experiments and check every "
    "measured metric against its paper band (non-zero exit on a miss)",
    run=_cmd_verify,
    flags=Flags(scale=True, workers=_WORKERS_HELP, jobs=True, store=True,
                trace=True),
    configure=_configure_verify,
    cases=(
        ExitCase("passes with relaxed bands",
                 ("verify", "table1", "--scale", "0.02", "--seed", "1234",
                  "--tolerance-scale", "4"), 0),
        ExitCase("gate failure on near-zero bands",
                 ("verify", "table1", "--scale", "0.02", "--seed", "1234",
                  "--tolerance-scale", "1e-6"), 1),
        ExitCase("unknown ids", ("verify", "nope", "--scale", "0.02"), 2),
        ExitCase("infinite scale", ("verify", "table1", "--scale", "inf"), 2),
        ExitCase("negative tolerance scale",
                 ("verify", "table1", "--scale", "0.004",
                  "--tolerance-scale", "-1"), 2),
        ExitCase("--dataset without logs/",
                 ("verify", "table1", "--dataset", "{no_logs}",
                  "--scale", "0.004"), 2),
        ExitCase("slurm.jsonl cut mid-line",
                 ("verify", "table2", "--dataset", "{bad_slurm}/cut",
                  "--scale", "0.004"), 2),
        ExitCase("slurm.jsonl is a directory",
                 ("verify", "table2", "--dataset", "{bad_slurm}/dir",
                  "--scale", "0.004"), 2),
        ExitCase("logs is a file",
                 ("verify", "table2", "--dataset", "{logs_file}",
                  "--scale", "0.004"), 2),
    ),
))
