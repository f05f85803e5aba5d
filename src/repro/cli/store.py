"""Columnar event-store commands: store build|stats|query|compact."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.cli.common import parse_query_args
from repro.cli.registry import (
    CliError,
    Command,
    ExitCase,
    Flags,
    add_common,
    register,
    require_positive,
)


def _configure_store(parser: argparse.ArgumentParser) -> None:
    store_sub = parser.add_subparsers(dest="store_command", required=True)

    p_build = store_sub.add_parser(
        "build", help="ingest a dataset's logs into a store directory"
    )
    p_build.add_argument("dataset", type=Path,
                         help="dataset directory written by 'synthesize' "
                         "(or a bare log directory)")
    p_build.add_argument("store_dir", type=Path,
                         help="store directory to create")
    p_build.add_argument("--workers", type=int, default=1,
                         help="processes for sharded log extraction")
    p_build.add_argument("--segment-records", type=int, default=None,
                         help="records per segment (default 50,000)")
    add_common(p_build)

    p_stats = store_sub.add_parser("stats", help="describe a store")
    p_stats.add_argument("store_dir", type=Path)
    p_stats.add_argument("--json", action="store_true")

    p_query = store_sub.add_parser(
        "query",
        help="slice the store: pushdown by time window, XID, node, serial",
    )
    p_query.add_argument("store_dir", type=Path)
    p_query.add_argument("--since", default=None,
                         help="ISO timestamp or epoch seconds (inclusive)")
    p_query.add_argument("--until", default=None,
                         help="ISO timestamp or epoch seconds (inclusive)")
    p_query.add_argument("--xids", default=None,
                         help="comma-separated XID codes (e.g. 48,63,79)")
    p_query.add_argument("--nodes", default=None,
                         help="comma-separated node ids")
    p_query.add_argument("--serials", default=None,
                         help="comma-separated GPU serials (<node>/<pci-bus>)")
    p_query.add_argument("--limit", type=int, default=None,
                         help="print at most this many records")
    p_query.add_argument("--count", action="store_true",
                         help="print only the matching-record count")

    p_compact = store_sub.add_parser(
        "compact", help="merge small segments (content and order preserved)"
    )
    p_compact.add_argument("store_dir", type=Path)
    p_compact.add_argument("--threshold", type=int, default=None,
                           help="segments smaller than this merge "
                           "(default 10,000)")


def _cmd_store(args: argparse.Namespace) -> int:
    if args.store_command == "build":
        return _store_build(args)
    if args.store_command == "stats":
        return _store_stats(args)
    if args.store_command == "query":
        return _store_query(args)
    if args.store_command == "compact":
        return _store_compact(args)
    return 2


def _store_build(args: argparse.Namespace) -> int:
    from repro.faults import AMPERE_CALIBRATION
    from repro.pipeline import FileSetSource
    from repro.store import DEFAULT_SEGMENT_RECORDS, EventStore

    require_positive("--workers", args.workers)
    require_positive("--segment-records", args.segment_records)
    logs_dir = (args.dataset / "logs" if (args.dataset / "logs").is_dir()
                else args.dataset)
    if not logs_dir.is_dir():
        raise CliError(f"{logs_dir} is not a directory")
    if EventStore.exists(args.store_dir) and EventStore.open(args.store_dir).n_records:
        raise CliError(f"store at {args.store_dir} is already built "
                       "(query it, or choose a new directory)")
    meta = {
        "scale": args.scale,
        "seed": args.seed,
        "window_hours": AMPERE_CALIBRATION.window_hours(args.scale),
        "n_nodes": AMPERE_CALIBRATION.reference_node_count,
        "dataset": str(args.dataset),
    }
    store = EventStore.open_or_create(args.store_dir, meta=meta)
    segments = store.ingest(
        FileSetSource(logs_dir),
        workers=args.workers,
        segment_records=args.segment_records or DEFAULT_SEGMENT_RECORDS,
    )
    print(f"ingested {store.n_records:,} records into {len(segments)} "
          f"segment(s) under {args.store_dir} "
          f"(content hash {store.content_hash()})")
    return 0


def _store_stats(args: argparse.Namespace) -> int:
    import json as _json

    from repro.store import EventStore

    stats = EventStore.open(args.store_dir).stats()
    if args.json:
        print(_json.dumps(stats, indent=2, sort_keys=True))
        return 0
    from repro.util.timeutil import format_timestamp

    print(f"store     : {stats['directory']}")
    print(f"schema    : {stats['schema']}")
    print(f"segments  : {stats['n_segments']}  "
          f"({stats['n_bytes']:,} bytes)")
    print(f"records   : {stats['n_records']:,}")
    print(f"nodes     : {stats['n_nodes']}  "
          f"gpus: {stats['n_serials']}")
    if stats["time_min"] is not None:
        print(f"window    : {format_timestamp(stats['time_min'])} "
              f"-> {format_timestamp(stats['time_max'])}")
    print(f"hash      : {stats['content_hash']}")
    counts = ", ".join(f"{x}:{c:,}" for x, c in
                       stats["counts_by_xid"].items())
    print(f"xid counts: {counts}")
    return 0


def _store_query(args: argparse.Namespace) -> int:
    import itertools

    from repro.store import EventStore
    from repro.util.timeutil import format_timestamps

    require_positive("--limit", args.limit)
    query = parse_query_args(args)
    store = EventStore.open(args.store_dir)
    candidates, skipped = store.plan(query)
    if args.count:
        print(store.count(query))
        print(f"({len(candidates)} segment(s) read, {skipped} pruned by "
              "zone maps)", file=sys.stderr)
        return 0
    records = itertools.islice(store.query(query), args.limit)
    printed = 0
    # One formatting call per chunk: a call costs more than a record.
    while chunk := list(itertools.islice(records, 4096)):
        stamps = format_timestamps([record.time for record in chunk])
        for stamp, record in zip(stamps, chunk):
            pid = "-" if record.pid is None else str(record.pid)
            print(f"{stamp}\t{record.node_id}\t"
                  f"{record.pci_bus}\t{record.xid}\t{pid}\t{record.message}")
        printed += len(chunk)
    print(f"({printed} record(s); {len(candidates)} segment(s) read, "
          f"{skipped} pruned by zone maps)", file=sys.stderr)
    return 0


def _store_compact(args: argparse.Namespace) -> int:
    from repro.store import EventStore
    from repro.store.store import DEFAULT_COMPACT_THRESHOLD

    require_positive("--threshold", args.threshold)
    store = EventStore.open(args.store_dir)
    threshold = (DEFAULT_COMPACT_THRESHOLD if args.threshold is None
                 else args.threshold)
    merged = store.compact(threshold=threshold)
    print(f"compacted {merged} segments away; store now holds "
          f"{store.n_segments} segment(s), {store.n_records:,} records")
    return 0


register(Command(
    name="store",
    help="persistent columnar event store: build once, slice by time "
    "window / XID / node / GPU without re-parsing raw logs",
    run=_cmd_store,
    # NB: --trace goes before the nested subcommand
    # (repro-delta store --trace DIR query ...).
    flags=Flags(trace=True),
    configure=_configure_store,
    cases=(
        ExitCase("stats on a built store",
                 ("store", "stats", "{built_store}"), 0),
        ExitCase("stats on a missing store",
                 ("store", "stats", "{absent}"), 2),
        ExitCase("rebuilding an already-built store",
                 ("store", "build", "{dataset}", "{built_store}",
                  "--scale", "0.004", "--seed", "3"), 2),
        ExitCase("zero workers",
                 ("store", "build", "{dataset}", "{tmp}/events",
                  "--workers", "0"), 2),
        ExitCase("cut .log.gz",
                 ("store", "build", "{cut}", "{tmp}/events"), 2),
        ExitCase("negative segment size",
                 ("store", "build", "{dataset}", "{tmp}/events",
                  "--segment-records", "-5"), 2),
        ExitCase("non-integer xids",
                 ("store", "query", "{built_store}", "--xids", "abc"), 2),
        ExitCase("zero limit",
                 ("store", "query", "{built_store}", "--limit", "0"), 2),
        ExitCase("zero compaction threshold",
                 ("store", "compact", "{built_store}", "--threshold", "0"), 2),
    ),
))
