"""Persist a record stream into an event store, segment by segment.

Feed a :class:`StoreWriter` one record at a time through
:meth:`~StoreWriter.on_record` and every record lands in the store.  It
flushes a segment per :data:`SEGMENT_RECORDS` records, and whatever has
waited :data:`FLUSH_SECONDS` of wall time, so a long-lived
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
from repro.core.parsing import RawXidRecord
from repro.store.store import EventStore

#: Records per segment, and the wall seconds after which a partial
#: segment is flushed anyway.
SEGMENT_RECORDS = 20_000
FLUSH_SECONDS = 5.0


class StoreWriter:
    """Buffer records and append them to an :class:`EventStore` in segments."""

    def __init__(self, store: EventStore) -> None:
        self.store = store
        #: ``store.flushes`` / ``store.flush_seconds`` /
        #: ``store.records_written``, for ``/metrics`` self-observability.
        self.counters = obs.CounterSet()
        self._buffer: List[RawXidRecord] = []
        self._last_flush = time.monotonic()

    def on_record(self, record: RawXidRecord) -> None:
        self._buffer.append(record)
        if len(self._buffer) >= SEGMENT_RECORDS:
            self.flush()
        else:
            self.flush_if_due()

    def flush_if_due(self) -> None:
        """Flush if :data:`FLUSH_SECONDS` have passed since the last flush."""
        if time.monotonic() - self._last_flush >= FLUSH_SECONDS:
            self.flush()

    def flush(self) -> None:
        """Write the buffered records out as one segment (if any)."""
        start = time.monotonic()
        self._last_flush = start
        if not self._buffer:
            return
        info = self.store.append_segment(self._buffer)
        self._buffer = []
        elapsed = time.monotonic() - start
        self.counters.inc("store.flushes")
        self.counters.inc("store.flush_seconds", elapsed)
        self.counters.inc("store.records_written", info.n_records)
        obs.add("store.flushes")
        obs.add("store.flush_seconds", elapsed)

    def close(self) -> None:
        self.flush()
