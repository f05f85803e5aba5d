"""Extract: turn a source's shards into records, as one batch or a stream.

Two entry points share one merge rule, so their records and order are
*identical* for any worker count:

* :func:`extract_records` is Stage I for the study and
  ``pipeline.parity``.  It returns one
  :class:`~repro.core.parsing.XidBatch`.  With ``workers > 1`` each shard
  is parsed into a batch in parallel by
  :func:`repro.util.fanout.ordered_map`, which returns the batches in
  shard order.  Serially each shard is parsed whole in turn.  Either way
  :meth:`~repro.core.parsing.XidBatch.merge` merges the batches by a
  stable argsort on time.
* :func:`iter_source_batches` streams the same rows as consecutive
  batches, for the paths that must hold little: store ingest,
  ``monitor`` and ``replay --logs``.  Serially one shard streams its
  chunks in its own order, and several are k-way merged a chunk at a
  time, so the stream holds about one chunk per open shard.  With
  ``workers > 1`` and several shards it yields :func:`extract_records`'
  one batch.

Merge ties break by shard order, as in ``heapq.merge``, and shard order
is fixed by the source, never by which worker finished first.  A merged
stream is globally time-ordered, satisfying the
:class:`~repro.core.streaming.StreamingCoalescer` ordering contract;
batch :func:`~repro.core.coalesce.coalesce_errors` sorts internally.
"""

from __future__ import annotations

from typing import Iterator, List

import numpy as np

from repro import obs
from repro.core.parsing import XidBatch
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


def _merge_shards(shards: list, workers: int) -> XidBatch:
    """Several whole shards parsed and merged into one batch."""
    pooled = _parse_shards(shards, workers) if workers > 1 else None
    with obs.span("pipeline.merge", shards=len(shards)) as span:
        # Serially the shards are parsed inside the pass's span.
        batches = pooled if pooled is not None else [shard.batch() for shard in shards]
        batch = XidBatch.merge(batches)
        span.add("pipeline.records", len(batch))
    return batch


def extract_records(source: Source, *, workers: int = 1) -> XidBatch:
    """Every record a source holds, as one batch in merge order.

    ``workers > 1`` parses the shards across processes when there is more
    than one; the batch is identical for every worker count.
    """
    shards = _shards(source, workers)
    if len(shards) > 1:
        return _merge_shards(shards, workers)
    with obs.span("pipeline.concat") as span:
        batch = shards[0].batch() if shards else XidBatch.empty()
        span.add("pipeline.records", len(batch))
    return batch


def iter_source_batches(source: Source, *, workers: int = 1) -> Iterator[XidBatch]:
    """Every record a source holds, as non-empty batches in merge order.

    Concatenated, the batches equal :func:`extract_records` for every
    worker count.
    """
    shards = _shards(source, workers)
    if len(shards) > 1 and workers > 1:
        yield _merge_shards(shards, workers)
        return
    chunks = [filter(len, shard.chunks()) for shard in shards]
    if len(chunks) > 1:
        span, batches = obs.span("pipeline.merge", shards=len(chunks)), _merge_chunks(chunks)
    else:
        span, batches = obs.span("pipeline.concat"), chunks[0] if chunks else iter(())
    with span:
        for batch in batches:
            span.add("pipeline.records", len(batch))
            yield batch


def _merge_chunks(streams: List[Iterator[XidBatch]]) -> Iterator[XidBatch]:
    """``heapq.merge`` by time over the shards' chunk streams, as batches.

    Each shard's loaded rows wait in ``held``.  The rows earlier than every
    open shard's last loaded row go out: while each shard is ordered, no
    unread row can precede them.  Rows tied at that horizon wait, so shard
    order breaks ties as ``heapq.merge`` does.  Then the shard that set
    the horizon loads its next chunk.  A shard that turns out unordered
    ends the bound: every shard's remainder is read whole and merged by
    :meth:`XidBatch.merge`, whose heap fallback reproduces ``heapq.merge``.
    """
    held = [XidBatch.empty()] * len(streams)
    open_shards = set(range(len(streams)))

    def load(shard: int) -> bool:
        """Hold the shard's next chunk; False if it breaks time order."""
        chunk = next(streams[shard], None)
        if chunk is None:
            open_shards.discard(shard)
            return True
        before = held[shard]
        held[shard] = XidBatch.concat([before, chunk]) if len(before) else chunk
        return bool(np.all(chunk.time[1:] >= chunk.time[:-1])) and (
            not len(before) or chunk.time[0] >= before.time[-1]
        )

    ordered = all([load(shard) for shard in range(len(streams))])
    while ordered and open_shards:
        horizon, setter = min((held[shard].time[-1], shard) for shard in open_shards)
        ready = []
        for shard, rows in enumerate(held):
            if len(rows) and rows.time[0] < horizon:
                cut = int(rows.time.searchsorted(horizon))
                ready.append(rows.take(slice(None, cut)))
                held[shard] = rows.take(slice(cut, None))
        if ready:
            yield XidBatch.merge(ready)
        ordered = load(setter)
    rest = XidBatch.merge([
        XidBatch.concat([rows, *stream]) for rows, stream in zip(held, streams)
    ])
    if len(rest):
        yield rest
