"""Extract: turn a source's shards into one ordered record stream.

A source with one shard streams it lazily, in its own order.  A source
with several shards is k-way merged by timestamp; with ``workers > 1``
its shards are first parsed in parallel by
:func:`repro.util.fanout.ordered_map`, which returns the per-shard
record lists in shard order.  Either way the resulting stream is
*identical* (records and order) for any worker count, which is what lets
both Algorithm-1 engines sit behind one extraction front-end:

* the k-way merge yields a globally time-ordered stream, satisfying the
  :class:`~repro.core.streaming.StreamingCoalescer` ordering contract;
* batch :func:`~repro.core.coalesce.coalesce_errors` sorts internally,
  so it is order-indifferent and sees the same multiset either way.

Merge ties break by shard order (``heapq.merge`` is stable), which is
fixed by the source — never by which worker finished first.
"""

from __future__ import annotations

import heapq
import operator
from typing import Iterator, List

from repro import obs
from repro.core.parsing import RawXidRecord
from repro.pipeline.sources import Source
from repro.util.fanout import ordered_map


def _parse_shard(shard) -> List[RawXidRecord]:
    """Fully parse one shard (module-level so pool workers can pickle it)."""
    with obs.span("pipeline.extract.shard") as span:
        records = list(shard.iter_records())
        span.add("pipeline.shard_records", len(records))
        return records


def iter_source_records(source: Source, *, workers: int = 1) -> Iterator[RawXidRecord]:
    """Stream every record a source holds, optionally parsing in parallel.

    ``workers=1`` streams shards lazily with no pool; ``workers>1`` parses
    the shards across processes when there is more than one.  The output
    stream is identical for every worker count.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    shards = list(source.shards())
    if len(shards) <= 1:
        records = shards[0].iter_records() if shards else iter(())
        yield from obs.span_iter(
            "pipeline.concat", records, counter="pipeline.records"
        )
        return

    if workers > 1:
        n_workers = min(workers, len(shards))
        with obs.span("pipeline.extract", shards=len(shards), workers=n_workers):
            streams: List[List[RawXidRecord]] = ordered_map(
                _parse_shard, shards, workers=n_workers, label="extract",
                chunksize=max(1, len(shards) // (n_workers * 4)),
            )
    else:
        streams = [shard.iter_records() for shard in shards]  # type: ignore[misc]
    yield from obs.span_iter(
        "pipeline.merge",
        heapq.merge(*streams, key=operator.attrgetter("time")),
        counter="pipeline.records",
        shards=len(shards),
    )


def extract_records(source: Source, *, workers: int = 1) -> List[RawXidRecord]:
    """Materialized convenience wrapper around :func:`iter_source_records`."""
    return list(iter_source_records(source, workers=workers))
