"""What-if engine command: simulate."""

from __future__ import annotations

import argparse
from pathlib import Path

from repro.cli.registry import Command, ExitCase, Flags, register, require_positive


def _configure_simulate(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scenario", default="a100-512",
                        help="preset fleet+job (see --list-scenarios)")
    parser.add_argument("--policy", default="ckpt",
                        help="recovery policy: none | ckpt[:h] | "
                        "spare[:n][:h] | elastic[:h]")
    parser.add_argument("--replicas", type=int, default=16,
                        help="Monte-Carlo replicas to run")
    parser.add_argument("--workers", type=int, default=1,
                        help="worker processes (aggregates are identical "
                        "for any worker count)")
    parser.add_argument("--gpus", type=int, default=None,
                        help="override the scenario's job size")
    parser.add_argument("--useful-hours", type=float, default=None,
                        help="override the scenario's job length")
    parser.add_argument("--cache-dir", type=Path, default=None,
                        help="cache replica results here (resumable sweeps)")
    parser.add_argument("--format", choices=("text", "json"), default=None,
                        help="table (text) or the aggregate as JSON")
    parser.add_argument("--json", action="store_true",
                        help="alias for --format json")
    parser.add_argument("--output-dir", type=Path, default=None,
                        help="write result.json + manifest.json for the sweep")
    parser.add_argument("--list-scenarios", action="store_true",
                        help="list scenario presets and exit")


def _cmd_simulate(args: argparse.Namespace) -> int:
    import json as _json

    from repro.sim import AGGREGATE_FIELDS, SweepConfig, list_scenarios, run_sweep

    if args.list_scenarios:
        for name, description in list_scenarios():
            print(f"{name:<20} {description}")
        return 0
    require_positive("--workers", args.workers)
    output_format = args.format or ("json" if args.json else "text")
    try:
        config = SweepConfig(
            scenario=args.scenario,
            policy=args.policy,
            replicas=args.replicas,
            seed=args.seed,
            n_gpus=args.gpus,
            useful_hours=args.useful_hours,
        )
        config.build()  # fail fast on bad scenario/policy specs
    except ValueError as error:
        print(f"error: {error}")
        return 2
    result = run_sweep(
        config,
        workers=args.workers,
        cache_dir=str(args.cache_dir) if args.cache_dir is not None else None,
    )
    if args.output_dir is not None:
        directory = args.output_dir / f"sweep_{result.config_hash}"
        directory.mkdir(parents=True, exist_ok=True)
        (directory / "result.json").write_text(
            _json.dumps(result.to_dict(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        if result.manifest is not None:
            (directory / "manifest.json").write_text(
                _json.dumps(result.manifest.to_dict(), indent=2) + "\n",
                encoding="utf-8",
            )
    if output_format == "json":
        print(_json.dumps(result.to_dict(), indent=2, sort_keys=True))
        return 0
    aggregate = result.aggregate
    print(f"scenario {config.scenario}  policy {config.policy}  "
          f"replicas {config.replicas} (cached {result.n_from_cache})  "
          f"seed {config.seed}")
    print(f"completed fraction: {aggregate['completed_fraction']:.2f}")
    for name in AGGREGATE_FIELDS:
        cell = aggregate[name]
        print(f"  {name:<24} {cell['mean']:12.3f} +/- {cell['ci95']:.3f}")
    return 0


register(Command(
    name="simulate",
    help="what-if engine: Monte-Carlo sweep of a training job against "
    "the measured failure process under a recovery policy",
    run=_cmd_simulate,
    flags=Flags(seed=7, trace=True),
    configure=_configure_simulate,
    cases=(
        ExitCase("tiny sweep",
                 ("simulate", "--scenario", "a100-256", "--policy", "none",
                  "--replicas", "1", "--seed", "5", "--gpus", "16",
                  "--useful-hours", "6"), 0),
        ExitCase("unknown scenario", ("simulate", "--scenario", "z9000"), 2),
        ExitCase("unknown policy", ("simulate", "--policy", "teleport"), 2),
        ExitCase("zero workers", ("simulate", "--workers", "0"), 2),
    ),
))
