"""Per-GPU health registry.

The service's state layer: every ingested
:class:`~repro.core.parsing.RawXidRecord` updates the health picture of
its (node, PCI bus) GPU — rolling error-onset rates, MTBE, open-run
persistence (via one :class:`~repro.core.streaming.StreamingCoalescer`
with ``keep_closed=False``, so memory stays O(open runs)), and an online
risk score.

One thread ingests (the service's ``fleet-ingest`` consumer, or a
replay), so one coalescer and one state map serve the whole fleet.  One
lock guards them because ``/metrics`` scrapes read from another thread.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.core.parsing import RawXidRecord
from repro.core.prediction import OBSERVE_SECONDS
from repro.core.streaming import PersistenceAlarm, StreamingCoalescer

GpuKey = Tuple[str, str]

#: Rolling window (seconds) of the per-GPU onset rates.
RATE_WINDOW_SECONDS = 3_600.0


@dataclass
class GpuHealth:
    """Mutable health state for one GPU."""

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

    def error_rate_per_hour(self) -> float:
        """Onsets per hour over the rolling window ``recent`` is pruned to."""
        return len(self.recent) * 3600.0 / RATE_WINDOW_SECONDS


@dataclass(frozen=True)
class OpenRunView:
    """Online features of the run a record belongs to (for risk scoring)."""

    xid: int
    start: float
    latest: float
    #: Lines / span observed within the observation window.
    early_lines: int
    early_span: float

    @property
    def open_persistence(self) -> float:
        return self.latest - self.start

    @property
    def early_mean_gap(self) -> float:
        """Mean gap between early lines; the window itself below two lines
        (as :func:`~repro.core.prediction.extract_runs` computes it)."""
        if self.early_lines < 2:
            return OBSERVE_SECONDS
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


class HealthRegistry:
    """Thread-safe per-GPU health state over a live record stream."""

    def __init__(
        self,
        *,
        alarm_after_seconds: float = 1_800.0,
        risk_scorer: Optional[RiskScorer] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.risk_scorer = risk_scorer or default_risk_scorer
        #: Wall-clock source for operational (non-analytic) readings; all
        #: health state keys off record *event* time, so injecting a fake
        #: clock never changes what the registry computes — only what
        #: :meth:`ingest_age_seconds` reports.
        self.clock = clock
        self._last_ingest_wall: Optional[float] = None
        self._lock = threading.Lock()
        self._states: Dict[GpuKey, GpuHealth] = {}
        # The live feed can jump backward in time (host clock reset, a
        # feed restarting behind warm-started store history); restart the
        # affected run instead of killing the ingest thread.
        self._coalescer = StreamingCoalescer(
            alarm_after_seconds=alarm_after_seconds,
            keep_closed=False,
            time_regression="restart",
        )

    # ------------------------------------------------------------------

    def ingest(self, record: RawXidRecord) -> IngestResult:
        """Feed one record; returns onset/alarm facts for alerting."""
        with self._lock:
            alarm = self._coalescer.feed(record)
            run = self._coalescer.run_of(record)
            onset = run.n_raw == 1

            health = self._states.get(record.gpu_key)
            if health is None:
                health = GpuHealth(
                    node_id=record.node_id, pci_bus=record.pci_bus,
                    first_seen=record.time, last_seen=record.time,
                )
                self._states[record.gpu_key] = health
            health.raw_lines += 1
            if record.time < health.last_seen - RATE_WINDOW_SECONDS:
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
            cutoff = health.last_seen - RATE_WINDOW_SECONDS
            while health.recent and health.recent[0][0] < cutoff:
                health.recent.popleft()

            view = OpenRunView(
                xid=record.xid,
                start=run.start,
                latest=run.latest,
                early_lines=run.early_lines,
                early_span=run.early_last - run.start,
            )
            health.risk_score = float(self.risk_scorer(health, view))
        self._last_ingest_wall = self.clock()
        return IngestResult(record=record, onset=onset, health=health, alarm=alarm)

    # ------------------------------------------------------------------
    # Read side (metrics exposition, reports)
    # ------------------------------------------------------------------

    def snapshot(self) -> List[GpuHealth]:
        """Every tracked GPU, in first-seen order, without copying.

        Caller must treat the returned objects as read-only; individual
        field reads are safe (GIL-atomic) even while ingestion continues.
        """
        with self._lock:
            return list(self._states.values())

    def open_runs(self) -> int:
        return self._coalescer.open_runs()

    def onset_counts(self) -> Dict[int, int]:
        """Fleet-wide error onsets per XID."""
        totals: Dict[int, int] = {}
        with self._lock:
            for health in self._states.values():
                for xid, count in health.onsets.items():
                    totals[xid] = totals.get(xid, 0) + count
        return totals

    def persistence_alarms(self) -> int:
        return self._coalescer.alarm_count

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
