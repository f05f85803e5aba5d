"""Online (streaming) error coalescing and persistence alarms.

Section 4.3's operational recommendation: "SREs should continuously monitor
the errors at the tail of the GPU error persistence distribution ... to
mitigate the error as soon as possible" — the 17-day uncontained saga went
unnoticed because nothing watched persistence *live*.

:class:`StreamingCoalescer` is an incremental Algorithm 1: feed it raw XID
records in arrival order and it maintains open runs per (GPU, XID, message),
emitting a :class:`CoalescedError` when a run closes (gap beyond the window
or cut-off reached) and raising a :class:`PersistenceAlarm` the moment an
*open* run exceeds the alarm threshold — without waiting for it to end,
which is the whole point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.core.coalesce import (
    DEFAULT_MAX_PERSISTENCE,
    DEFAULT_WINDOW_SECONDS,
    CoalescedError,
)
from repro.core.parsing import RawXidRecord
from repro.core.prediction import OBSERVE_SECONDS

GroupKey = Tuple[str, str, int, str]


@dataclass(frozen=True)
class PersistenceAlarm:
    """Raised once per run when its open persistence crosses the threshold."""

    node_id: str
    pci_bus: str
    xid: int
    start_time: float
    open_persistence: float
    n_raw: int


@dataclass
class OpenRun:
    """One run still open in a :class:`StreamingCoalescer`.

    Besides Algorithm 1's state it counts the run's *early* lines, those
    within :data:`~repro.core.prediction.OBSERVE_SECONDS` of its start:
    the online features the persistence predictor is trained on.
    """

    start: float
    latest: float
    n_raw: int
    early_lines: int
    #: Time of the latest line inside the observation window.
    early_last: float
    alarmed: bool = False


class StreamingCoalescer:
    """Incremental Algorithm 1 with live persistence alarms.

    **Ordering contract.**  Records should arrive in non-decreasing time
    order per GPU (syslog order); global interleaving across GPUs is fine.
    Real collection pipelines deliver *slightly* late lines (a flushed
    buffer, a slow forwarder), so the contract is window-tolerant:

    * a record up to ``window_seconds`` older than its run's latest record
      is folded into the open run (it would have coalesced into the same
      error had it arrived on time; an early-enough late record may extend
      the run's start backward);
    * a record later than that raises :class:`ValueError` — such a record
      belongs to an already-determined portion of the stream and accepting
      it would silently diverge from batch Algorithm 1.  A long-lived
      service whose feed can legitimately jump backward in time (a host
      clock reset, a feed restarting behind warm-started history) passes
      ``time_regression="restart"`` instead: the stale run is closed and
      the record starts a fresh one on the new timeline, so one bad
      timestamp never kills a live ingest thread.

    **Live-path memory.**  By default every closed error is retained on
    ``self.closed`` (batch-equivalence workflows read it back via
    :meth:`flush`).  A long-running service should pass
    ``keep_closed=False`` and receive closed errors through the
    ``on_close`` callback instead, keeping memory O(open runs).  Alarms
    are handed back by :meth:`feed` and only counted (``alarm_count``).

    ``on_close(error)`` fires whenever a run closes (including during
    :meth:`flush`).  A record started a new run exactly when
    :meth:`run_of` reports ``n_raw == 1`` right after :meth:`feed`.
    """

    def __init__(
        self,
        window_seconds: float = DEFAULT_WINDOW_SECONDS,
        max_persistence: float = DEFAULT_MAX_PERSISTENCE,
        alarm_after_seconds: float = 600.0,
        *,
        keep_closed: bool = True,
        on_close: Optional[Callable[[CoalescedError], None]] = None,
        time_regression: str = "raise",
    ) -> None:
        if window_seconds <= 0 or max_persistence <= 0 or alarm_after_seconds <= 0:
            raise ValueError("streaming coalescer thresholds must be positive")
        if time_regression not in ("raise", "restart"):
            raise ValueError('time_regression must be "raise" or "restart"')
        self.window_seconds = window_seconds
        self.max_persistence = max_persistence
        self.alarm_after_seconds = alarm_after_seconds
        self.keep_closed = keep_closed
        self.time_regression = time_regression
        self.on_close = on_close
        self._open: Dict[GroupKey, OpenRun] = {}
        self.alarm_count = 0
        self.closed: List[CoalescedError] = []

    # ------------------------------------------------------------------

    def feed(self, record: RawXidRecord) -> Optional[PersistenceAlarm]:
        """Ingest one record; returns an alarm if this record triggers one."""
        key = (record.node_id, record.pci_bus, record.xid, record.message)
        run = self._open.get(key)
        if run is not None:
            gap = record.time - run.latest
            if -self.window_seconds <= gap < 0:
                # Late arrival within the window: fold it into the open run.
                if record.time < run.start:
                    run.start = record.time
            elif gap < 0:
                if self.time_regression == "raise":
                    raise ValueError(
                        "streaming input out of order beyond the coalescing "
                        f"window (got t={record.time} after t={run.latest})"
                    )
                # The feed jumped backward in time: the stale run is over;
                # this record begins a new one on the new timeline.
                self._close(key, run)
                run = None
            elif (
                gap > self.window_seconds
                or record.time - run.start > self.max_persistence
            ):
                self._close(key, run)
                run = None
            else:
                run.latest = record.time
        if run is None:
            self._open[key] = OpenRun(record.time, record.time, 1, 1, record.time)
            return None
        run.n_raw += 1
        if record.time <= run.start + OBSERVE_SECONDS:
            run.early_lines += 1
            if record.time > run.early_last:
                run.early_last = record.time
        return self._maybe_alarm(key, run, record)

    def run_of(self, record: RawXidRecord) -> Optional[OpenRun]:
        """The open run of ``record``'s (GPU, XID, message) group, if any."""
        return self._open.get(
            (record.node_id, record.pci_bus, record.xid, record.message)
        )

    def _maybe_alarm(
        self, key: GroupKey, run: OpenRun, record: RawXidRecord
    ) -> Optional[PersistenceAlarm]:
        if not run.alarmed and (run.latest - run.start) >= self.alarm_after_seconds:
            run.alarmed = True
            alarm = PersistenceAlarm(
                node_id=record.node_id,
                pci_bus=record.pci_bus,
                xid=record.xid,
                start_time=run.start,
                open_persistence=run.latest - run.start,
                n_raw=run.n_raw,
            )
            self.alarm_count += 1
            return alarm
        return None

    def feed_many(self, records: Iterable[RawXidRecord]) -> Iterator[PersistenceAlarm]:
        """Ingest a stream, yielding alarms as they fire."""
        for record in records:
            alarm = self.feed(record)
            if alarm is not None:
                yield alarm

    # ------------------------------------------------------------------

    def flush(self) -> List[CoalescedError]:
        """Close every open run (end of stream) and return all errors.

        With ``keep_closed=False`` the closed errors went to ``on_close``
        instead of accumulating, so the returned list is empty.
        """
        for key, run in sorted(self._open.items()):
            self._close(key, run)
        self._open.clear()
        self.closed.sort(key=lambda e: (e.time, e.node_id, e.pci_bus, e.xid))
        return list(self.closed)

    def open_runs(self) -> int:
        return len(self._open)

    def _close(self, key: GroupKey, run: OpenRun) -> None:
        node_id, pci_bus, xid, message = key
        error = CoalescedError(
            time=run.start,
            node_id=node_id,
            pci_bus=pci_bus,
            xid=xid,
            persistence=run.latest - run.start,
            n_raw=run.n_raw,
            message=message,
        )
        if self.keep_closed:
            self.closed.append(error)
        if self.on_close is not None:
            self.on_close(error)
        if key in self._open:
            del self._open[key]
