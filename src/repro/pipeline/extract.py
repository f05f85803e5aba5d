"""Extract: turn a source's shards into one ordered record stream.

The serial path streams each shard lazily; the parallel path fans the
shards out with :func:`repro.util.fanout.ordered_map` and collects
per-shard record lists in shard order.  Both paths
then combine the per-shard streams the same way — a k-way merge by
timestamp when the source declares its shards time-ordered, plain
concatenation otherwise — so the resulting stream is *identical*
(records and order) for any worker count.  That identity is what lets
every consumer, batch or streaming, sit behind one extraction front-end:

* the k-way merge yields a globally time-ordered stream, satisfying the
  :class:`~repro.core.streaming.StreamingCoalescer` ordering contract;
* batch Algorithm 1 sorts internally, so it is order-indifferent and
  sees the same multiset either way.

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

    ``workers=1`` streams shards lazily with no pool; ``workers>1`` shards
    extraction across processes when the source supports it (falling back
    to the serial path for single-shard or non-picklable sources).  The
    output stream is identical for every worker count.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if source.live:
        yield from source.iter_records()
        return

    shards = list(source.shards())
    if workers > 1 and source.parallelizable and len(shards) > 1:
        n_workers = min(workers, len(shards))
        with obs.span("pipeline.extract", shards=len(shards), workers=n_workers):
            streams: List[List[RawXidRecord]] = ordered_map(
                _parse_shard, shards, workers=n_workers, label="extract",
                chunksize=max(1, len(shards) // (n_workers * 4)),
            )
    else:
        streams = [shard.iter_records() for shard in shards]  # type: ignore[misc]

    if source.merge_by_time and len(shards) > 1:
        yield from obs.span_iter(
            "pipeline.merge",
            heapq.merge(*streams, key=operator.attrgetter("time")),
            counter="pipeline.records",
            shards=len(shards),
        )
    else:
        yield from obs.span_iter(
            "pipeline.concat", _chain(streams), counter="pipeline.records"
        )


def _chain(streams) -> Iterator[RawXidRecord]:
    for stream in streams:
        yield from stream


def extract_records(source: Source, *, workers: int = 1) -> List[RawXidRecord]:
    """Materialized convenience wrapper around :func:`iter_source_records`."""
    return list(iter_source_records(source, workers=workers))
