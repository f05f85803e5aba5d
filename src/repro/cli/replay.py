"""Deterministic replay & backtest commands: replay demo|backtest|run."""

from __future__ import annotations

import argparse
import itertools
from pathlib import Path

from repro.cli.common import emit_result, parse_query_args
from repro.cli.registry import CliError, Command, ExitCase, Flags, register, require_positive


def _add_replay_source(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--store", type=Path, default=None, metavar="DIR",
                        help="replay from a columnar event store")
    parser.add_argument("--logs", type=Path, default=None, metavar="DIR",
                        help="replay from a directory of *.log files")
    parser.add_argument("--workers", type=int, default=1,
                        help="extraction workers (scorecard identical "
                        "for any count)")
    parser.add_argument("--speed", type=float, default=None,
                        help="simulated seconds per wall second "
                        "(1 = real time; default: unbounded)")
    parser.add_argument("--since", default=None,
                        help="ISO timestamp or epoch seconds (inclusive)")
    parser.add_argument("--until", default=None,
                        help="ISO timestamp or epoch seconds (inclusive)")
    parser.add_argument("--xids", default=None,
                        help="comma-separated XID codes to replay")
    parser.add_argument("--nodes", default=None,
                        help="comma-separated node ids")
    parser.add_argument("--serials", default=None,
                        help="comma-separated GPU serials (<node>/<pci-bus>)")


def _configure_replay(parser: argparse.ArgumentParser) -> None:
    replay_sub = parser.add_subparsers(dest="replay_command", required=True)

    p_demo = replay_sub.add_parser(
        "demo",
        help="write the demo cluster's two-day trace as per-node log "
        "files, flat-out (a backtest fixture: build a store from it)",
    )
    p_demo.add_argument("logs_dir", type=Path)
    p_demo.add_argument("--seed", type=int, default=11)

    p_backtest = replay_sub.add_parser(
        "backtest",
        help="replay history through the real stack and emit the typed "
        "scorecard: per-rule precision/recall vs XID-79 incidents, "
        "lead times, false-alarm rates, predictor PR curve",
    )
    _add_replay_source(p_backtest)
    p_backtest.add_argument("--horizon-minutes", type=float, default=60.0,
                            help="forward window an alert has to call an "
                            "incident")
    p_backtest.add_argument("--format", choices=("text", "json"),
                            default="text",
                            help="print the paper-style text or the "
                            "structured JSON artifact")
    p_backtest.add_argument("--output-dir", type=Path, default=None,
                            help="also write result.json + manifest.json")

    p_run = replay_sub.add_parser(
        "run",
        help="replay history through the stack, printing alerts as they "
        "fire (paced by --speed)",
    )
    _add_replay_source(p_run)
    p_run.add_argument("--alerts-jsonl", type=Path, default=None,
                       help="also append alerts to this JSON-lines file")


def _record_source(args: argparse.Namespace):
    """Resolve ``--store``/``--logs`` into ``(factory, label, fingerprint)``.

    The factory yields a *fresh* time-ordered record stream per call
    (the backtest reads the history twice).  The fingerprint identifies
    the content under test — store content hash plus the pushdown query,
    or the log file set — and deliberately excludes worker counts and
    replay speed, which must not perturb the scorecard's run id.
    """
    import hashlib

    from repro.pipeline import FileSetSource, iter_source_batches
    from repro.results import config_digest
    from repro.store import EventStore, ReplayCursor

    if (args.store is None) == (args.logs is None):
        raise CliError("pass exactly one of --store DIR or --logs DIR")
    require_positive("--workers", args.workers)
    query = parse_query_args(args)
    if args.store is not None:
        store = EventStore.open(args.store)

        def factory():
            return ReplayCursor(store, query=query).iter_records()

        fingerprint = store.content_hash()
        if not query.unconstrained:
            fingerprint += "+" + config_digest(query.to_dict())
        return factory, f"store:{args.store}", fingerprint

    if not args.logs.is_dir():
        raise CliError(f"{args.logs} is not a directory")
    workers = args.workers
    source = FileSetSource(args.logs)
    if not source.paths:
        raise CliError(f"{args.logs} holds no log files")
    names = hashlib.sha256(
        "\n".join(sorted(p.name for p in source.paths)).encode()
    ).hexdigest()[:12]

    def factory():
        stream = itertools.chain.from_iterable(
            iter_source_batches(FileSetSource(args.logs), workers=workers)
        )
        if query.unconstrained:
            return stream
        return (r for r in stream if query.matches_record(r))

    return factory, f"logs:{args.logs}", f"files-{names}"


def _cmd_replay(args: argparse.Namespace) -> int:
    if args.replay_command == "demo":
        return _replay_demo(args)
    if args.replay_command == "backtest":
        require_positive("--horizon-minutes", args.horizon_minutes)
    factory, label, fingerprint = _record_source(args)
    require_positive("--speed", args.speed)
    if args.replay_command == "backtest":
        return _replay_backtest(args, factory, label, fingerprint)
    if args.replay_command == "run":
        return _replay_run(args, factory)
    return 2


def _replay_demo(args: argparse.Namespace) -> int:
    from repro.fleet import LiveLogEmitter
    from repro.fleet.demo import demo_trace

    trace = demo_trace(seed=args.seed)
    emitter = LiveLogEmitter.from_trace(
        trace, args.logs_dir, seed=args.seed, speedup=None
    )
    lines = emitter.run()
    print(f"wrote {lines:,} log lines ({len(trace):,} events over "
          f"{trace.window_seconds / 86_400.0:.1f} days, "
          f"{len(trace.node_ids)} nodes) under {args.logs_dir}")
    return 0


def _replay_backtest(
    args: argparse.Namespace, factory, label: str, fingerprint: str
) -> int:
    from repro.replay import BacktestConfig, ReplayPacer, run_backtest

    config = BacktestConfig(horizon_seconds=args.horizon_minutes * 60.0)
    result = run_backtest(
        factory,
        config,
        pacer=ReplayPacer(args.speed),
        source_label=label,
        source_fingerprint=fingerprint,
    )
    emit_result(result, args)
    return 0


def _replay_run(args: argparse.Namespace, factory) -> int:
    from repro.fleet import JsonLinesSink, StdoutSink
    from repro.replay import ReplayEngine, ReplayPacer

    sinks = [StdoutSink()]
    jsonl_sink = None
    if args.alerts_jsonl is not None:
        jsonl_sink = JsonLinesSink(args.alerts_jsonl)
        sinks.append(jsonl_sink)
    engine = ReplayEngine(pacer=ReplayPacer(args.speed), sinks=sinks)
    try:
        outcome = engine.replay(factory())
    except KeyboardInterrupt:
        print("interrupted")
        return 130
    finally:
        if jsonl_sink is not None:
            jsonl_sink.close()
    speed = ("flat-out" if outcome.wall_seconds <= 0
             else f"{outcome.speedup:,.0f}x")
    print(f"replayed {outcome.records:,} records "
          f"({outcome.span_seconds / 86_400.0:.2f} days of history) "
          f"in {outcome.wall_seconds:.2f} s [{speed}]: "
          f"{outcome.onsets:,} onsets, {outcome.alarms} alarms, "
          f"{len(outcome.alerts)} alerts")
    return 0


register(Command(
    name="replay",
    help="deterministic replay & backtest: drive the live fleet stack "
    "from stored history and score alerts/predictions against "
    "ground truth",
    run=_cmd_replay,
    # NB: --trace goes before the nested subcommand
    # (repro-delta replay --trace DIR backtest ...).
    flags=Flags(trace=True),
    configure=_configure_replay,
    cases=(
        ExitCase("demo trace to log files",
                 ("replay", "demo", "{tmp}/demo_logs", "--seed", "11"), 0),
        ExitCase("backtest needs exactly one source",
                 ("replay", "backtest"), 2),
        ExitCase("backtest over the demo store",
                 ("replay", "backtest", "--store", "{demo_store}"), 0),
        ExitCase("negative horizon",
                 ("replay", "backtest", "--store", "{demo_store}",
                  "--horizon-minutes", "-5"), 2),
        ExitCase("NaN replay speed",
                 ("replay", "backtest", "--store", "{demo_store}",
                  "--speed", "nan"), 2),
        ExitCase("non-integer xids",
                 ("replay", "run", "--store", "{demo_store}", "--xids", "x"), 2),
        ExitCase("cut .log.gz",
                 ("replay", "run", "--logs", "{cut}/logs"), 2),
    ),
))
