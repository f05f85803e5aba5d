"""Drive the *real* fleet stack from stored history.

:class:`ReplayEngine` feeds a time-ordered record stream — a store
cursor, a pushdown query, a parsed log directory — through the very
objects the live service runs: a
:class:`~repro.fleet.registry.HealthRegistry` (streaming coalescing,
persistence alarms, online risk scores) and a
:class:`~repro.fleet.rules.RuleEngine` (the paper's operator guidance).
No forked logic, no "replay mode" branches in the stack itself: what
fires here is exactly what would have fired live, because every piece
of alerting state keys off event time.

Delivery is single-threaded and paced by a
:class:`~repro.replay.clock.ReplayPacer`; the pacer's speed factor
changes *when* records arrive, never *what* they produce — the
:class:`ReplayOutcome` is identical at 1x, 100x, and unbounded.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.parsing import RawXidRecord
from repro.fleet.registry import HealthRegistry
from repro.fleet.rules import Alert, AlertSink, MemorySink, RuleEngine, default_rules
from repro.replay.clock import ReplayPacer


@dataclass(frozen=True)
class OnsetEvent:
    """One coalesced-run start observed during replay (ground-truth feed)."""

    time: float
    node_id: str
    pci_bus: str
    xid: int


@dataclass
class ReplayOutcome:
    """Everything one replay produced, in delivery order."""

    records: int = 0
    onsets: int = 0
    alarms: int = 0
    time_min: Optional[float] = None
    time_max: Optional[float] = None
    alerts: Tuple[Alert, ...] = ()
    onset_events: Tuple[OnsetEvent, ...] = ()
    serials: Tuple[Tuple[str, str], ...] = ()
    #: Wall seconds the replay took on the pacer's clock (virtual under a
    #: virtual clock); 0.0 when nothing was replayed.
    wall_seconds: float = 0.0

    @property
    def span_seconds(self) -> float:
        if self.time_min is None or self.time_max is None:
            return 0.0
        return self.time_max - self.time_min

    @property
    def speedup(self) -> float:
        """Achieved simulated-seconds per wall-second."""
        if self.wall_seconds <= 0:
            return float("inf") if self.span_seconds > 0 else 0.0
        return self.span_seconds / self.wall_seconds

    def alerts_of(self, rule: str) -> List[Alert]:
        return [a for a in self.alerts if a.rule == rule]


class ReplayEngine:
    """One replay session over a record stream.

    The engine owns fresh registry/rule-engine instances per session, so
    repeated replays never share state.  ``sinks`` receive alerts live
    (paced), exactly as the service's sinks would; the outcome always
    carries the full alert list regardless.
    """

    def __init__(
        self,
        *,
        sinks: Sequence[AlertSink] = (),
        pacer: Optional[ReplayPacer] = None,
    ) -> None:
        self.pacer = pacer if pacer is not None else ReplayPacer(None)
        self.registry = HealthRegistry(clock=self.pacer.monotonic)
        self._memory = MemorySink()
        self.engine = RuleEngine(default_rules(), sinks=(self._memory, *sinks))

    @property
    def rule_names(self) -> Tuple[str, ...]:
        return tuple(rule.name for rule in self.engine.rules)

    def replay(self, records: Iterable[RawXidRecord]) -> ReplayOutcome:
        """Deliver the stream; returns the complete outcome."""
        from repro import obs

        pacer = self.pacer
        outcome = ReplayOutcome()
        onset_events: List[OnsetEvent] = []
        serials: Dict[Tuple[str, str], None] = {}
        wall_start: Optional[float] = None
        waited_before = pacer.waited
        with obs.span("replay.replay", speed=pacer.speed) as span:
            for record in records:
                pacer.wait_until(record.time)
                if wall_start is None:
                    wall_start = pacer.monotonic()
                result = self.registry.ingest(record)
                self.engine.observe(result)
                outcome.records += 1
                serials.setdefault(record.gpu_key)
                if outcome.time_min is None or record.time < outcome.time_min:
                    outcome.time_min = record.time
                if outcome.time_max is None or record.time > outcome.time_max:
                    outcome.time_max = record.time
                if result.onset:
                    outcome.onsets += 1
                    onset_events.append(
                        OnsetEvent(
                            time=record.time,
                            node_id=record.node_id,
                            pci_bus=record.pci_bus,
                            xid=record.xid,
                        )
                    )
                if result.alarm is not None:
                    outcome.alarms += 1
            if wall_start is not None:
                outcome.wall_seconds = pacer.monotonic() - wall_start
            outcome.alerts = tuple(self._memory.alerts)
            outcome.onset_events = tuple(onset_events)
            # Insertion (= first-seen) order keeps the tuple deterministic.
            outcome.serials = tuple(serials)
            span.add("replay.records", outcome.records)
            span.add("replay.onsets", outcome.onsets)
            span.add("replay.alarms", outcome.alarms)
            span.add("replay.alerts", len(outcome.alerts))
            span.add("replay.waited_seconds", pacer.waited - waited_before)
        return outcome
