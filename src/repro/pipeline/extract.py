"""Extract: turn a source's shards into records, as a batch or a stream.

Two entry points share one merge rule, so their records and order are
*identical* for any worker count:

* :func:`extract_records` is Stage I for the batch paths (the study,
  ``store build``, ``pipeline.parity``).  It returns one
  :class:`~repro.core.parsing.XidBatch`.  With ``workers > 1`` each shard
  is parsed into a batch in parallel by
  :func:`repro.util.fanout.ordered_map`, which returns the batches in
  shard order.  Serially each shard is parsed in turn.  Either way
  :meth:`~repro.core.parsing.XidBatch.merge` merges the batches by a
  stable argsort on time.
* :func:`iter_source_records` is the lazy row stream for the live paths
  (``monitor``, ``replay --logs``) and for ``store build``, whose segments
  take one segment's rows at a time: one shard streams in its own order,
  several are k-way merged by ``heapq.merge`` (with ``workers > 1``, over
  the rows of the batches the pool returns).

Merge ties break by shard order (``heapq.merge`` is stable, and so is the
argsort), which is fixed by the source — never by which worker finished
first.  A merged stream is globally time-ordered, satisfying the
:class:`~repro.core.streaming.StreamingCoalescer` ordering contract;
batch :func:`~repro.core.coalesce.coalesce_errors` sorts internally.
"""

from __future__ import annotations

import heapq
import operator
from typing import Iterable, Iterator, List

from repro import obs
from repro.core.parsing import RawXidRecord, XidBatch
from repro.pipeline.sources import Source
from repro.util.fanout import ordered_map


def _parse_shard(shard) -> XidBatch:
    """Parse one shard (module-level so pool workers can pickle it)."""
    with obs.span("pipeline.extract.shard") as span:
        batch = shard.batch()
        span.add("pipeline.shard_records", len(batch))
        return batch


def _parse_shards(shards: list, workers: int) -> List[XidBatch]:
    """One batch per shard, in shard order, over up to ``workers`` processes."""
    n_workers = min(workers, len(shards))
    with obs.span("pipeline.extract", shards=len(shards), workers=n_workers):
        return ordered_map(
            _parse_shard, shards, workers=n_workers, label="extract",
            chunksize=max(1, len(shards) // (n_workers * 4)),
        )


def _shards(source: Source, workers: int) -> list:
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    return list(source.shards())


def extract_records(source: Source, *, workers: int = 1) -> XidBatch:
    """Every record a source holds, as one batch in merge order.

    ``workers > 1`` parses the shards across processes when there is more
    than one; the batch is identical for every worker count.
    """
    shards = _shards(source, workers)
    if len(shards) <= 1:
        with obs.span("pipeline.concat") as span:
            batch = shards[0].batch() if shards else XidBatch.empty()
            span.add("pipeline.records", len(batch))
        return batch
    pooled = _parse_shards(shards, workers) if workers > 1 else None
    with obs.span("pipeline.merge", shards=len(shards)) as span:
        # Serially the shards are parsed inside the pass's span.
        batches = pooled if pooled is not None else [shard.batch() for shard in shards]
        batch = XidBatch.merge(batches)
        span.add("pipeline.records", len(batch))
    return batch


def iter_source_records(source: Source, *, workers: int = 1) -> Iterator[RawXidRecord]:
    """Stream every record a source holds as rows, optionally parsing in
    parallel.

    The row view of :func:`extract_records`, for the live paths and
    store ingest.
    ``workers=1`` streams shards lazily with no pool; ``workers>1`` parses
    the shards across processes when there is more than one.  The output
    stream is identical for every worker count.
    """
    shards = _shards(source, workers)
    if len(shards) <= 1:
        records = shards[0].iter_records() if shards else iter(())
        yield from obs.span_iter(
            "pipeline.concat", records, counter="pipeline.records"
        )
        return
    streams: List[Iterable[RawXidRecord]] = (
        _parse_shards(shards, workers) if workers > 1  # type: ignore[assignment]
        else [shard.iter_records() for shard in shards]
    )
    yield from obs.span_iter(
        "pipeline.merge",
        heapq.merge(*streams, key=operator.attrgetter("time")),
        counter="pipeline.records",
        shards=len(shards),
    )
