"""Replay cursor: one pass over a store's history, also as time windows.

:class:`ReplayCursor` reads an :class:`~repro.store.store.EventStore`
(optionally under a residual :class:`~repro.store.query.Query`) with one
pushdown query per pass, so each candidate segment is decoded once.
:meth:`~ReplayCursor.iter_records` is that flat stream;
:meth:`~ReplayCursor.windows` groups the same pass into consecutive
half-open ``[lo, hi)`` slices of event time, for a consumer that wants a
place to pace or checkpoint between slices.  A pass that starts
mid-history is a query with a ``time_range``.
"""

from __future__ import annotations

import math
from typing import Iterator, List, Tuple, Union

from repro.core.parsing import RawXidRecord
from repro.store.query import MATCH_ALL, Query
from repro.store.store import EventStore

#: Default window width: six hours of event time per slice.
DEFAULT_WINDOW_SECONDS = 6 * 3600.0


class ReplayCursor:
    """Iterate a store's (filtered) history in order, flat or by windows.

    ``window_seconds`` bounds how much event time one slice covers;
    ``query`` narrows the replayed stream exactly like
    :meth:`EventStore.query` would.  The cursor's own time bounds are the
    intersection of the store's span and the query's ``time_range``.
    """

    def __init__(
        self,
        store: Union[EventStore, str],
        *,
        query: Query = MATCH_ALL,
        window_seconds: float = DEFAULT_WINDOW_SECONDS,
    ) -> None:
        if not isinstance(store, EventStore):
            store = EventStore.open(store)
        if window_seconds <= 0 or not math.isfinite(window_seconds):
            raise ValueError("window_seconds must be positive and finite")
        self.store = store
        self.query = query
        self.window_seconds = float(window_seconds)
        lo, hi = store.time_span or (0.0, -math.inf)
        if query.time_range is not None:
            q_lo, q_hi = query.time_range
            if q_lo is not None:
                lo = max(lo, q_lo)
            if q_hi is not None:
                hi = min(hi, q_hi)
        #: Inclusive bounds of the replayable history.
        self.time_min = lo
        self.time_max = hi

    def windows(self) -> Iterator[Tuple[float, float, List[RawXidRecord]]]:
        """Yield ``(lo, hi, records)`` slices of one pass, in order.

        Windows start at :attr:`time_min` and step by ``window_seconds``
        while they start no later than :attr:`time_max`, empty ones
        included.  Records satisfy ``lo <= record.time < hi``; the history
        ends at or before the last window's ``hi``.
        """
        lo, window = self.time_min, []
        for record in self.iter_records():
            while record.time >= lo + self.window_seconds:
                yield lo, lo + self.window_seconds, window
                lo, window = lo + self.window_seconds, []
            window.append(record)
        while lo <= self.time_max:
            yield lo, lo + self.window_seconds, window
            lo, window = lo + self.window_seconds, []

    def iter_records(self) -> Iterator[RawXidRecord]:
        """The flat stream: ``store.query(query)``."""
        return self.store.query(self.query)

    def __iter__(self) -> Iterator[RawXidRecord]:
        return self.iter_records()
