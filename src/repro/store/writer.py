"""Persist a stream of record batches into an event store, segment by segment.

Hand a :class:`StoreWriter` each :class:`~repro.core.parsing.XidBatch`
through :meth:`~StoreWriter.write` and every record lands in the store.
Each time :data:`SEGMENT_RECORDS` records have accumulated it writes a
segment of exactly that many, and whatever has waited
:data:`FLUSH_SECONDS` of wall time goes out too, so a long-lived
``repro-delta serve`` leaves durable history behind even at low event
rates.  The fleet service's ingest thread calls
:meth:`~StoreWriter.flush_if_due` after each poll that finds nothing, so
records become durable during a silence too, and ``close()`` (which the
same thread calls in a ``finally``) flushes the remainder — no records
are lost on a clean stop.
"""

from __future__ import annotations

import time
from typing import List

from repro import obs
from repro.core.parsing import XidBatch
from repro.store.store import EventStore

#: Records per segment, and the wall seconds after which a partial
#: segment is flushed anyway.
SEGMENT_RECORDS = 20_000
FLUSH_SECONDS = 5.0


class StoreWriter:
    """Buffer batches and append them to an :class:`EventStore` in segments."""

    def __init__(self, store: EventStore) -> None:
        self.store = store
        #: ``store.flushes`` / ``store.flush_seconds`` /
        #: ``store.records_written``, for ``/metrics`` self-observability.
        self.counters = obs.CounterSet()
        self._buffer: List[XidBatch] = []
        self._buffered = 0
        self._last_flush = time.monotonic()

    def write(self, batch: XidBatch) -> None:
        """Buffer ``batch``; every full :data:`SEGMENT_RECORDS` records
        buffered go out as a segment each."""
        self._buffer.append(batch)
        self._buffered += len(batch)
        if self._buffered < SEGMENT_RECORDS:
            self.flush_if_due()
            return
        rows = XidBatch.concat(self._buffer)
        full = len(rows) - len(rows) % SEGMENT_RECORDS
        self._buffer, self._buffered = [rows.take(slice(full, None))], len(rows) - full
        self._append(rows.take(slice(full)))

    def flush_if_due(self) -> None:
        """Flush if :data:`FLUSH_SECONDS` have passed since the last flush."""
        if time.monotonic() - self._last_flush >= FLUSH_SECONDS:
            self.flush()

    def flush(self) -> None:
        """Write the buffered records out as one segment (if any)."""
        rows = XidBatch.concat(self._buffer)
        self._buffer, self._buffered = [], 0
        self._append(rows)

    def _append(self, rows: XidBatch) -> None:
        start = time.monotonic()
        self._last_flush = start
        if not len(rows):
            return
        segments = self.store.append(rows, segment_records=SEGMENT_RECORDS)
        elapsed = time.monotonic() - start
        self.counters.inc("store.flushes", len(segments))
        self.counters.inc("store.flush_seconds", elapsed)
        self.counters.inc("store.records_written", len(rows))
        obs.add("store.flushes", len(segments))
        obs.add("store.flush_seconds", elapsed)

    def close(self) -> None:
        self.flush()
