"""Dataset and characterization commands: synthesize, study, figures,
overprovision."""

from __future__ import annotations

import argparse
import math
from pathlib import Path

from repro.cli.common import write_result_dir
from repro.cli.registry import (
    CliError, Command, ExitCase, Flags, register, require_positive,
)

#: The experiments the ``study`` report prints, in paper order.
STUDY_SEQUENCE = (
    "table1", "fig5", "fig6", "fig7", "table2", "table3", "fig9", "sec5.5",
)


def _configure_synthesize(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("output", type=Path, help="output directory")
    parser.add_argument("--compress", action="store_true",
                        help="gzip the log files")


def _cmd_synthesize(args: argparse.Namespace) -> int:
    from repro.datasets import synthesize_delta

    require_positive("--scale", args.scale)
    if not math.isfinite(args.scale):
        raise CliError("--scale must be finite")
    if args.output.exists() and not args.output.is_dir():
        raise CliError(f"{args.output} exists and is not a directory")
    dataset = synthesize_delta(scale=args.scale, seed=args.seed)
    args.output.mkdir(parents=True, exist_ok=True)
    paths = dataset.write_logs(args.output / "logs", compress=args.compress)
    dataset.save_slurm_db(args.output / "slurm.jsonl")
    print(f"wrote {len(paths)} node log files and slurm.jsonl under {args.output}")
    return 0


def _configure_study(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--dataset", type=Path, default=None,
                        help="directory written by 'synthesize' "
                        "(default: in-memory)")
    parser.add_argument("--h100", action="store_true",
                        help="also run the Section-6 H100 analysis")


def _cmd_study(args: argparse.Namespace) -> int:
    import json as _json

    from repro.session import Session

    session = Session.from_args(args)
    sequence = STUDY_SEQUENCE + (("sec6",) if args.h100 else ())
    results = session.run_many(sequence)
    if args.output_dir is not None:
        for result in results:
            write_result_dir(result, args.output_dir)
    if args.format == "json":
        print(_json.dumps([r.to_dict() for r in results], indent=2))
    else:
        print("\n\n".join(r.render_text() for r in results))
    return 0


def _configure_overprovision(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--nodes", type=int, default=800)


def _cmd_overprovision(args: argparse.Namespace) -> int:
    from repro.core import OverprovisionConfig, OverprovisionSimulator
    from repro.core.report import overprovision_result

    require_positive("--nodes", args.nodes)
    simulator = OverprovisionSimulator(
        OverprovisionConfig(n_nodes=args.nodes, seed=args.seed)
    )
    results = simulator.sweep(
        recovery_minutes=(5.0, 10.0, 20.0, 40.0),
        availabilities=(0.995, 0.9987),
    )
    print(overprovision_result(results).render_text())
    return 0


def _configure_figures(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--output", type=Path, default=Path("figures"))


def _cmd_figures(args: argparse.Namespace) -> int:
    from repro.core import OverprovisionConfig, OverprovisionSimulator
    from repro.session import Session
    from repro.viz import render_all_figures

    study = Session.from_args(args).study
    sweep = OverprovisionSimulator(OverprovisionConfig(n_trials=2)).sweep(
        recovery_minutes=(5.0, 20.0, 40.0), availabilities=(0.995, 0.9987)
    )
    paths = render_all_figures(
        stats=study.error_statistics(),
        impact=study.job_impact(),
        availability=study.availability(),
        graph=study.propagation().analyze(),
        sweep=sweep,
        directory=args.output,
    )
    for path in paths:
        print(path)
    return 0


register(Command(
    name="synthesize",
    help="generate a dataset to a directory",
    run=_cmd_synthesize,
    flags=Flags(scale=True),
    configure=_configure_synthesize,
    cases=(
        ExitCase("writes logs and slurm db",
                 ("synthesize", "{tmp}/data", "--scale", "0.004",
                  "--seed", "3"), 0),
        ExitCase("missing output directory argument", ("synthesize",), 2),
        ExitCase("nonpositive scale",
                 ("synthesize", "{tmp}/data", "--scale", "0"), 2),
        ExitCase("infinite scale",
                 ("synthesize", "{tmp}/x", "--scale", "inf"), 2),
        ExitCase("output is an existing file",
                 ("synthesize", "{dataset}/slurm.jsonl", "--scale", "0.004"), 2),
    ),
))

register(Command(
    name="study",
    help="run the characterization and print reports",
    run=_cmd_study,
    flags=Flags(
        scale=True,
        workers="processes for sharded log extraction over an on-disk "
                "--dataset (default: every core this process may use; "
                "1 forces the serial path; identical results either way)",
        jobs=True,
        store=True,
        output=True,
        trace=True,
    ),
    configure=_configure_study,
    cases=(
        ExitCase("in-memory study",
                 ("study", "--scale", "0.004", "--seed", "3"), 0),
        ExitCase("nonpositive workers",
                 ("study", "--scale", "0.004", "--workers", "0"), 2),
        ExitCase("NaN scale", ("study", "--scale", "nan"), 2),
        ExitCase("missing --dataset directory",
                 ("study", "--dataset", "{absent}", "--scale", "0.004"), 2),
        ExitCase("--dataset without logs/, fanned out",
                 ("study", "--dataset", "{no_logs}", "--scale", "0.004",
                  "--jobs", "2"), 2),
        ExitCase("cut .log.gz",
                 ("study", "--dataset", "{cut}", "--scale", "0.004",
                  "--workers", "1"), 2),
        ExitCase("cut .log.gz, parsed in a pool",
                 ("study", "--dataset", "{cut}", "--scale", "0.004",
                  "--workers", "2"), 2),
        ExitCase("slurm.jsonl cut mid-line",
                 ("study", "--dataset", "{bad_slurm}/cut", "--scale", "0.004"), 2),
        ExitCase("slurm.jsonl cut mid-line, fanned out",
                 ("study", "--dataset", "{bad_slurm}/cut", "--scale", "0.004",
                  "--jobs", "2"), 2),
        ExitCase("slurm row of an unknown kind",
                 ("study", "--dataset", "{bad_slurm}/kind", "--scale", "0.004"), 2),
        ExitCase("slurm job row without a name",
                 ("study", "--dataset", "{bad_slurm}/name", "--scale", "0.004"), 2),
        ExitCase("slurm.jsonl is a directory",
                 ("study", "--dataset", "{bad_slurm}/dir", "--scale", "0.004"), 2),
        ExitCase("logs is a file",
                 ("study", "--dataset", "{logs_file}", "--scale", "0.004"), 2),
    ),
))

register(Command(
    name="overprovision",
    help="run the Section-5.4 sweep",
    run=_cmd_overprovision,
    flags=Flags(seed=7),
    configure=_configure_overprovision,
    cases=(
        ExitCase("small sweep",
                 ("overprovision", "--nodes", "120", "--seed", "3"), 0),
        ExitCase("non-integer nodes", ("overprovision", "--nodes", "x"), 2),
        ExitCase("zero nodes", ("overprovision", "--nodes", "0"), 2),
    ),
))

register(Command(
    name="figures",
    help="render the paper's figures as SVG",
    run=_cmd_figures,
    flags=Flags(scale=True),
    configure=_configure_figures,
    cases=(
        ExitCase("renders SVGs",
                 ("figures", "--scale", "0.004", "--seed", "3",
                  "--output", "{tmp}/figs"), 0),
        ExitCase("non-numeric scale", ("figures", "--scale", "big"), 2),
    ),
))
