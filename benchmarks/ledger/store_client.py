"""store-mixed's program side: build an event store, then query it.

Run as a subprocess by the harness so that interpreter start-up, memory
and exit are measured like every CLI workload::

    python -m benchmarks.ledger.store_client LOGS STORE QUERIES [--check] [--trace DIR]

Write leg: ``EventStore.create`` + ``ingest(FileSetSource(LOGS), workers=1)``.
Read leg: the queries in the QUERIES JSON file, one client in a closed loop
(each query is sent when the previous answer is complete).  Rows are hashed
as the store yields them and never held as a list: one GPU's burst can hold
nearly every record of a seed, so a client that kept its answers would peak
at a size set by the seed, not by the store.  Prints one JSON line: ingest
seconds, per-query latencies (``null`` for a query that raised), a digest
of every answer, and how many queries raised.  ``--check`` also compares a
sample of answers with a row-at-a-time filter over a full scan.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
import traceback
from pathlib import Path

from benchmarks.ledger.inputs import SEGMENT_RECORDS, to_query

#: ``--check`` verifies every this-many-th query.
CHECK_EVERY = 100


def _digest_rows(rows, digest) -> None:
    for r in rows:
        digest.update(f"{r.time!r} {r.node_id} {r.pci_bus} {r.xid}\n".encode())
    digest.update(b"end\n")


def answer(store, spec: dict, digest) -> None:
    """Run one query and feed its answer into ``digest``."""
    query = to_query(spec)
    if spec["kind"] == "count":
        digest.update(f"count {store.count(query)}\n".encode())
    else:
        _digest_rows(store.query(query), digest)


def _check(store, specs: list) -> int:
    """Answers that differ from a full-scan filter, over a sample."""
    everything = list(store.query())
    wrong = 0
    for spec in specs[::CHECK_EVERY]:
        query = to_query(spec)
        rows = [r for r in everything if query.matches_record(r)]
        expected, got = hashlib.sha256(), hashlib.sha256()
        if spec["kind"] == "count":
            expected.update(f"count {len(rows)}\n".encode())
        else:
            _digest_rows(rows, expected)
        answer(store, spec, got)
        if got.digest() != expected.digest():
            wrong += 1
    return wrong


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("logs", type=Path)
    parser.add_argument("store", type=Path)
    parser.add_argument("queries", type=Path)
    parser.add_argument("--check", action="store_true")
    parser.add_argument("--trace", type=Path, default=None)
    args = parser.parse_args(argv)

    from repro import obs
    from repro.pipeline import FileSetSource
    from repro.store import EventStore

    if args.trace is not None:
        obs.activate(args.trace, label="store-client")
    try:
        started = time.perf_counter()
        store = EventStore.create(args.store)
        store.ingest(
            FileSetSource(args.logs), workers=1, segment_records=SEGMENT_RECORDS
        )
        ingest_s = time.perf_counter() - started

        specs = json.loads(args.queries.read_text(encoding="utf-8"))
        digest = hashlib.sha256()
        latencies_ms = []
        failed = 0
        for spec in specs:
            started = time.perf_counter()
            try:
                answer(store, spec, digest)
            except Exception:  # a query that raises is counted, not fatal
                traceback.print_exc()
                failed += 1
                latencies_ms.append(None)
                digest.update(b"error\n")
                continue
            latencies_ms.append((time.perf_counter() - started) * 1e3)
        wrong = _check(store, specs) if args.check else 0
    finally:
        obs.deactivate()

    print(json.dumps({
        "records": store.n_records,
        "segments": store.n_segments,
        "bytes": sum(s.n_bytes for s in store.manifest.segments),
        "ingest_s": ingest_s,
        "queries": len(specs),
        "latencies_ms": latencies_ms,
        "failed": failed,
        "wrong": wrong,
        "digest": digest.hexdigest(),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
