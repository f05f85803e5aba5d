"""Sharded per-GPU health registry.

The service's state layer: every ingested
:class:`~repro.core.parsing.RawXidRecord` updates the health picture of
its (node, PCI bus) GPU — rolling error-onset rates, MTBE, open-run
persistence (via one :class:`~repro.core.streaming.StreamingCoalescer`
per shard with ``keep_closed=False``, so memory stays O(open runs)), and
an online risk score.

Sharding: GPUs hash onto ``n_shards`` independent shards, each with its
own lock, coalescer, and state map.  Concurrent ingestion from many
tailer workers only contends within a shard, and one GPU's records always
serialize through one shard — which is what keeps the coalescer's per-GPU
ordering contract intact under concurrency.
"""

from __future__ import annotations

import threading
import time
import zlib
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.core.coalesce import CoalescedError
from repro.core.parsing import RawXidRecord
from repro.core.streaming import PersistenceAlarm, StreamingCoalescer

GpuKey = Tuple[str, str]


@dataclass
class GpuHealth:
    """Mutable health state for one GPU (owned by exactly one shard)."""

    node_id: str
    pci_bus: str
    #: Error onsets (coalesced-run starts) per XID code, all time.
    onsets: Dict[int, int] = field(default_factory=dict)
    #: Raw XID lines seen, all time.
    raw_lines: int = 0
    first_seen: float = 0.0
    last_seen: float = 0.0
    #: Recent onset times within the rolling rate window: (time, xid).
    recent: Deque[Tuple[float, int]] = field(default_factory=deque)
    #: Latest online risk score in [0, 1] (probability-like; higher = more
    #: likely the current run long-persists / the part is defective).
    risk_score: float = 0.0

    @property
    def total_onsets(self) -> int:
        return sum(self.onsets.values())

    def error_rate_per_hour(self, window_seconds: float) -> float:
        """Onsets per hour over the rolling window (as currently pruned)."""
        if window_seconds <= 0:
            return 0.0
        return len(self.recent) * 3600.0 / window_seconds


@dataclass(frozen=True)
class OpenRunView:
    """Online features of the run a record belongs to (for risk scoring)."""

    xid: int
    start: float
    latest: float
    n_raw: int
    #: Lines / span observed within the scorer's observation window.
    early_lines: int
    early_span: float

    @property
    def open_persistence(self) -> float:
        return self.latest - self.start

    @property
    def early_mean_gap(self) -> float:
        if self.early_lines < 2:
            return 0.0
        return self.early_span / (self.early_lines - 1)


#: A risk scorer maps (health, open run) -> score in [0, 1].
RiskScorer = Callable[[GpuHealth, OpenRunView], float]


@dataclass(frozen=True)
class IngestResult:
    """What one record did to the registry (drives the rule engine)."""

    record: RawXidRecord
    #: True when this record started a new coalesced run — i.e. it counts
    #: as one *error onset* (each eventual coalesced error is counted
    #: exactly once, at its first line, which is what live alerting needs).
    onset: bool
    health: GpuHealth
    alarm: Optional[PersistenceAlarm] = None
    closed: Tuple[CoalescedError, ...] = ()


@dataclass
class _RunTrack:
    """Early-window observation stats for one open run."""

    start: float
    latest: float
    n_raw: int
    early_lines: int
    early_last: float


class _Shard:
    """One independent slice of the registry."""

    def __init__(
        self,
        *,
        window_seconds: float,
        max_persistence: float,
        alarm_after_seconds: float,
        rate_window_seconds: float,
        observe_seconds: float,
    ) -> None:
        self.lock = threading.Lock()
        self.states: Dict[GpuKey, GpuHealth] = {}
        self.rate_window_seconds = rate_window_seconds
        self.observe_seconds = observe_seconds
        self._closed_buffer: List[CoalescedError] = []
        self._opened = False
        self._runs: Dict[Tuple[str, str, int, str], _RunTrack] = {}
        # The live feed can jump backward in time (host clock reset, a
        # feed restarting behind warm-started store history); restart the
        # affected run instead of killing the ingest thread.
        self.coalescer = StreamingCoalescer(
            window_seconds=window_seconds,
            max_persistence=max_persistence,
            alarm_after_seconds=alarm_after_seconds,
            keep_closed=False,
            on_open=self._on_open,
            on_close=self._on_close,
            time_regression="restart",
        )

    # Callbacks run inside coalescer.feed / flush, under this shard's lock.

    def _on_open(self, record: RawXidRecord) -> None:
        self._opened = True
        key = (record.node_id, record.pci_bus, record.xid, record.message)
        self._runs[key] = _RunTrack(
            start=record.time, latest=record.time, n_raw=1,
            early_lines=1, early_last=record.time,
        )

    def _on_close(self, error: CoalescedError) -> None:
        self._closed_buffer.append(error)
        self._runs.pop(
            (error.node_id, error.pci_bus, error.xid, error.message), None
        )


class HealthRegistry:
    """Thread-safe, sharded per-GPU health state over a live record stream."""

    def __init__(
        self,
        *,
        n_shards: int = 8,
        window_seconds: float = 5.0,
        max_persistence: float = 86_400.0,
        alarm_after_seconds: float = 1_800.0,
        rate_window_seconds: float = 3_600.0,
        observe_seconds: float = 300.0,
        risk_scorer: Optional[RiskScorer] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if n_shards <= 0:
            raise ValueError("n_shards must be positive")
        if rate_window_seconds <= 0:
            raise ValueError("rate_window_seconds must be positive")
        self.n_shards = n_shards
        self.rate_window_seconds = rate_window_seconds
        self.risk_scorer = risk_scorer or default_risk_scorer
        #: Wall-clock source for operational (non-analytic) readings; all
        #: health state keys off record *event* time, so injecting a fake
        #: clock never changes what the registry computes — only what
        #: :meth:`ingest_age_seconds` reports.
        self.clock = clock
        self._last_ingest_wall: Optional[float] = None
        self._shards = [
            _Shard(
                window_seconds=window_seconds,
                max_persistence=max_persistence,
                alarm_after_seconds=alarm_after_seconds,
                rate_window_seconds=rate_window_seconds,
                observe_seconds=observe_seconds,
            )
            for _ in range(n_shards)
        ]

    # ------------------------------------------------------------------

    def shard_index(self, gpu_key: GpuKey) -> int:
        digest = zlib.crc32(f"{gpu_key[0]}|{gpu_key[1]}".encode())
        return digest % self.n_shards

    def ingest(self, record: RawXidRecord) -> IngestResult:
        """Feed one record; returns onset/alarm/closed facts for alerting."""
        shard = self._shards[self.shard_index(record.gpu_key)]
        with shard.lock:
            shard._opened = False
            alarm = shard.coalescer.feed(record)
            onset = shard._opened
            closed = tuple(shard._closed_buffer)
            shard._closed_buffer.clear()

            health = shard.states.get(record.gpu_key)
            if health is None:
                health = GpuHealth(
                    node_id=record.node_id, pci_bus=record.pci_bus,
                    first_seen=record.time, last_seen=record.time,
                )
                shard.states[record.gpu_key] = health
            health.raw_lines += 1
            if record.time < health.last_seen - shard.rate_window_seconds:
                # The feed's clock jumped backward past the whole rolling
                # window (clock reset / replay restarting behind warm-start
                # history): rolling-rate state follows the new timeline.
                health.last_seen = record.time
                health.recent.clear()
            else:
                health.last_seen = max(health.last_seen, record.time)
            if onset:
                health.onsets[record.xid] = health.onsets.get(record.xid, 0) + 1
                health.recent.append((record.time, record.xid))
            cutoff = health.last_seen - shard.rate_window_seconds
            while health.recent and health.recent[0][0] < cutoff:
                health.recent.popleft()

            run_view = self._run_view(shard, record)
            if run_view is not None:
                health.risk_score = float(self.risk_scorer(health, run_view))
        self._last_ingest_wall = self.clock()
        return IngestResult(
            record=record, onset=onset, health=health, alarm=alarm, closed=closed
        )

    def _run_view(self, shard: _Shard, record: RawXidRecord) -> Optional[OpenRunView]:
        key = (record.node_id, record.pci_bus, record.xid, record.message)
        track = shard._runs.get(key)
        if track is None:
            return None
        if record.time >= track.latest:
            track.latest = record.time
            track.n_raw += 1 if record.time > track.start else 0
        else:
            track.n_raw += 1
        if record.time - track.start <= shard.observe_seconds and record.time > track.early_last:
            track.early_lines += 1
            track.early_last = record.time
        return OpenRunView(
            xid=record.xid,
            start=track.start,
            latest=track.latest,
            n_raw=track.n_raw,
            early_lines=track.early_lines,
            early_span=track.early_last - track.start,
        )

    # ------------------------------------------------------------------
    # Read side (metrics exposition, reports)
    # ------------------------------------------------------------------

    def snapshot(self) -> List[GpuHealth]:
        """A point-in-time copy-free view of every tracked GPU.

        Caller must treat the returned objects as read-only; individual
        field reads are safe (GIL-atomic) even while ingestion continues.
        """
        out: List[GpuHealth] = []
        for shard in self._shards:
            with shard.lock:
                out.extend(shard.states.values())
        return out

    def open_runs(self) -> int:
        return sum(s.coalescer.open_runs() for s in self._shards)

    def onset_counts(self) -> Dict[int, int]:
        """Fleet-wide error onsets per XID."""
        totals: Dict[int, int] = {}
        for shard in self._shards:
            with shard.lock:
                for health in shard.states.values():
                    for xid, count in health.onsets.items():
                        totals[xid] = totals.get(xid, 0) + count
        return totals

    def persistence_alarms(self) -> int:
        return sum(len(s.coalescer.alarms) for s in self._shards)

    def ingest_age_seconds(self) -> Optional[float]:
        """Wall seconds since the last ingested record (feed staleness).

        ``None`` until the first record lands.  Measured on the injected
        clock, so a replay under a virtual clock reports virtual ages.
        """
        last = self._last_ingest_wall
        if last is None:
            return None
        return max(0.0, self.clock() - last)


# ---------------------------------------------------------------------------
# Default (prior-based) risk scorer
# ---------------------------------------------------------------------------

#: Static P(long-persisting | XID) priors, read off the paper's Table 1
#: persistence distributions (codes whose mean far exceeds the median are
#: the heavy-tailed ones; XID 95 is the 17-day saga's code).  Used when no
#: trained :class:`~repro.core.prediction.PersistencePredictor` is wired in
#: (see :mod:`repro.fleet.risk`).
XID_LONG_RUN_PRIOR: Dict[int, float] = {
    31: 0.02,
    48: 0.10,
    63: 0.05,
    64: 0.10,
    74: 0.05,
    79: 0.15,
    94: 0.10,
    95: 0.30,
    119: 0.08,
    122: 0.05,
    136: 0.05,
}


def default_risk_scorer(health: GpuHealth, run: OpenRunView) -> float:
    """Heuristic online risk: prior x open-span x repeat-offender boosts.

    Monotone in the three signals the trained predictor uses (per-XID
    prior, how long/active the run already is, how often this GPU erred
    before); bounded in [0, 1).  Swap in
    :func:`repro.fleet.risk.predictor_scorer` for the learned model.
    """
    import math

    prior = XID_LONG_RUN_PRIOR.get(run.xid, 0.05)
    span_signal = run.open_persistence / 600.0  # 10 min ~ the alarm scale
    repeat_signal = math.log1p(health.total_onsets) / 4.0
    score = 1.0 - math.exp(-(prior + 0.8 * span_signal + 0.3 * repeat_signal))
    return min(score, 0.999)
