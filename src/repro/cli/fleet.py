"""Live fleet commands: monitor (streaming watchdog) and serve."""

from __future__ import annotations

import argparse
from pathlib import Path

from repro.cli.registry import CliError, Command, ExitCase, Flags, register, require_positive


def _configure_monitor(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("logs", type=Path, help="directory of *.log files")
    parser.add_argument("--alarm-minutes", type=float, default=30.0)


def _cmd_monitor(args: argparse.Namespace) -> int:
    import itertools

    from repro import obs
    from repro.core.streaming import StreamingCoalescer
    from repro.pipeline import FileSetSource, iter_source_batches
    from repro.util.timeutil import format_duration, format_timestamp

    require_positive("--alarm-minutes", args.alarm_minutes)
    if not args.logs.is_dir():
        raise CliError(f"{args.logs} is not a directory")

    # Stage I's batch stream preserves each node file's per-GPU order,
    # so the streaming coalescer can watch its rows as they flow:
    # alarms print the moment an open run crosses the threshold, and
    # keep_closed=False keeps memory O(open runs).  A watched directory
    # can legitimately regress in time (clock reset, a demo/emitter re-run
    # appending a fresh window): the watchdog restarts the affected run
    # instead of dying.
    n_errors = 0

    def _count_error(_error) -> None:
        nonlocal n_errors
        n_errors += 1

    coalescer = StreamingCoalescer(
        alarm_after_seconds=args.alarm_minutes * 60.0,
        keep_closed=False,
        on_close=_count_error,
        time_regression="restart",
    )
    records = itertools.chain.from_iterable(
        iter_source_batches(FileSetSource(args.logs))
    )
    with obs.span("pipeline.coalesce", engine="streaming") as span:
        for alarm in coalescer.feed_many(records):
            print(
                f"ALARM {format_timestamp(alarm.start_time)} {alarm.node_id} "
                f"{alarm.pci_bus} XID {alarm.xid}: error open for "
                f"{format_duration(alarm.open_persistence)} "
                f"({alarm.n_raw:,} duplicate lines so far)"
            )
        coalescer.flush()
        span.add("pipeline.errors", n_errors)
    print(
        f"stream complete: {n_errors:,} coalesced errors, "
        f"{coalescer.alarm_count} persistence alarms"
    )
    return 0


def _configure_serve(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("logs", type=Path,
                        help="directory of per-node *.log files to follow "
                        "(created when --simulate writes into it)")
    parser.add_argument("--simulate", action="store_true",
                        help="run a live fault-injection demo: inject a small "
                        "cluster's trace and replay it into the log directory "
                        "while the service follows it")
    parser.add_argument("--speedup", type=float, default=None,
                        help="simulated seconds per wall second for the "
                        "replay (default: flat out)")
    parser.add_argument("--port", type=int, default=0,
                        help="metrics endpoint port (0 = ephemeral)")
    parser.add_argument("--alarm-minutes", type=float, default=10.0,
                        help="open-persistence alarm threshold")
    parser.add_argument("--alerts-jsonl", type=Path, default=None,
                        help="also append alerts to this JSON-lines file")
    parser.add_argument("--duration", type=float, default=None,
                        help="follow for this many seconds then exit "
                        "(without --simulate the default is to run forever)")
    parser.add_argument("--store", type=Path, default=None, metavar="DIR",
                        help="persist ingested records into a columnar event "
                        "store at DIR; on restart the registry warm-starts "
                        "from it and only new log appends are tailed")
    parser.add_argument("--trained-risk", action="store_true",
                        help="fit the Section-4.3 persistence predictor on a "
                        "synthesized window and use it for risk scores "
                        "(default: static-prior heuristic)")


def _cmd_serve(args: argparse.Namespace) -> int:
    import time as _time

    from repro.fleet import (
        FleetHealthService,
        FleetServiceConfig,
        JsonLinesSink,
        LiveLogEmitter,
        StdoutSink,
    )

    require_positive("--speedup", args.speedup)
    require_positive("--alarm-minutes", args.alarm_minutes)
    if not 0 <= args.port <= 65535:
        raise CliError(f"--port must be in 0..65535, got {args.port}")
    if args.duration is not None and args.duration < 0:
        raise CliError("--duration must not be negative")

    risk_scorer = None
    if args.trained_risk:
        from repro.fleet.risk import fit_risk_model, predictor_scorer

        print("fitting persistence-risk model on a synthesized window...")
        risk_scorer = predictor_scorer(fit_risk_model(seed=args.seed))

    sinks = [StdoutSink()]
    jsonl_sink = None
    if args.alerts_jsonl is not None:
        jsonl_sink = JsonLinesSink(args.alerts_jsonl)
        sinks.append(jsonl_sink)

    emitter = None
    if args.simulate:
        from repro.fleet.demo import demo_trace

        trace = demo_trace(seed=args.seed)
        args.logs.mkdir(parents=True, exist_ok=True)
        emitter = LiveLogEmitter.from_trace(
            trace, args.logs, seed=args.seed, speedup=args.speedup
        )
        print(
            f"simulating {len(trace):,} injected events over "
            f"{trace.window_seconds / 86_400.0:.1f} days on "
            f"{len(trace.node_ids)} nodes -> {args.logs}"
        )
    elif not args.logs.is_dir():
        raise CliError(f"{args.logs} is not a directory "
                       "(use --simulate to create one)")

    service = FleetHealthService(
        FleetServiceConfig(
            logs_dir=args.logs,
            alarm_after_seconds=args.alarm_minutes * 60.0,
            metrics_port=args.port,
            store_dir=args.store,
        ),
        sinks=sinks,
        risk_scorer=risk_scorer,
    )
    service.start()
    if service.store is not None and service.records_replayed:
        print(f"warm start: replayed {service.records_replayed:,} records "
              f"from {args.store}; tailing new appends only")
    print(f"metrics: {service.metrics_url}")
    try:
        if emitter is not None:
            emitter.start()
            emitter.join()
            service.wait_idle(timeout=60.0)
            if args.duration:
                _time.sleep(args.duration)
        elif args.duration is not None:
            _time.sleep(args.duration)
        else:
            print("following logs; Ctrl-C to stop")
            while True:
                _time.sleep(3600.0)
    except KeyboardInterrupt:
        print("stopping...")
    finally:
        if emitter is not None:
            emitter.stop()
        try:
            service.stop()
        except Exception as error:
            raise CliError(
                f"fleet ingest thread died ({service.records_ingested:,} "
                f"records ingested): {type(error).__name__}: {error}"
            ) from error
        metrics_text = service.render_metrics()
        summary = service.summary()
        if jsonl_sink is not None:
            jsonl_sink.close()

    print()
    print("session summary:")
    for key in ("records_ingested", "tracked_gpus", "error_onsets",
                "open_runs", "persistence_alarms", "alerts_fired"):
        print(f"  {key}: {summary[key]}")
    if summary.get("store"):
        store_state = summary["store"]
        print(f"  store: {store_state['n_records']:,} records in "
              f"{store_state['n_segments']} segment(s) at "
              f"{store_state['directory']}")
    if summary["alerts_by_rule"]:
        for rule, count in summary["alerts_by_rule"].items():
            print(f"    {rule}: {count}")
    print()
    print("final /metrics scrape (excerpt):")
    for line in metrics_text.splitlines():
        if line.startswith(("repro_fleet_error_onsets_total",
                            "repro_fleet_alerts_total",
                            "repro_fleet_open_runs",
                            "repro_fleet_records_ingested_total")):
            print(f"  {line}")
    return 0


register(Command(
    name="monitor",
    help="stream a log directory through the live coalescer and print "
    "persistence alarms (the Section-4.3 watchdog)",
    run=_cmd_monitor,
    flags=Flags(),
    configure=_configure_monitor,
    cases=(
        ExitCase("watchdog over synthesized logs",
                 ("monitor", "{logs}", "--alarm-minutes", "30"), 0),
        ExitCase("missing log directory", ("monitor", "{absent}"), 2),
        ExitCase("non-positive alarm threshold",
                 ("monitor", "{logs}", "--alarm-minutes", "0"), 2),
        ExitCase("NaN alarm threshold",
                 ("monitor", "{logs}", "--alarm-minutes", "nan"), 2),
        ExitCase("cut .log.gz", ("monitor", "{cut}/logs"), 2),
    ),
))

register(Command(
    # The demo seed differs from the analysis default on purpose: it picks
    # a window with a photogenic offender GPU.
    name="serve",
    help="run the fleet health service: tail per-node logs live, "
    "maintain per-GPU health, fire operator alerts, expose /metrics",
    run=_cmd_serve,
    flags=Flags(seed=11),
    configure=_configure_serve,
    cases=(
        ExitCase("live demo, flat out",
                 ("serve", "{tmp}/srv_logs", "--simulate", "--seed", "11",
                  "--alarm-minutes", "10"), 0),
        ExitCase("non-positive speedup",
                 ("serve", "{tmp}/srv_logs", "--simulate",
                  "--speedup", "0"), 2),
        ExitCase("NaN speedup",
                 ("serve", "{tmp}/srv_logs", "--simulate",
                  "--speedup", "nan", "--duration", "3"), 2),
        ExitCase("missing logs without --simulate",
                 ("serve", "{absent}"), 2),
        ExitCase("port out of range", ("serve", "{logs}", "--port", "99999"), 2),
        ExitCase("negative duration",
                 ("serve", "{logs}", "--duration", "-1"), 2),
    ),
))
