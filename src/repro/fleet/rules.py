"""Declarative alert rules encoding the paper's operator guidance.

Each :class:`AlertRule` is data, not code: which XID codes it watches, how
many onsets within what window, an optional precursor code (for chain
rules like DBE -> row-remap), or the persistence-alarm trigger.  One
:class:`RuleEngine` evaluates every rule against the registry's ingest
facts and emits :class:`Alert` objects to pluggable sinks.

The default catalog (:func:`default_rules`) is the paper's Section 4
operator guidance:

* XID 79 (GPU fallen off the bus) -> drain the node (Section 4.4.1:
  hardware loss, SRE intervention);
* repeated XID 119 (GSP RPC timeout) -> reset the GPU (Section 5.1:
  GSP errors dominate and need a reset/reboot to clear);
* XID 48 followed by 63/64 (DBE -> row-remap chain) -> audit retired
  pages (Section 4.4.3: remapping failures mean the part is running out
  of spare rows);
* bursty XID 95 (uncontained ECC) offenders -> replace the GPU
  (Section 4.2: >90% of uncontained errors came from a few defective
  parts);
* any persistence alarm -> page an SRE (Section 4.3: watch the tail of
  the persistence distribution live).
"""

from __future__ import annotations

import enum
import json
import sys
import threading
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Deque, Dict, Iterable, List, Optional, Protocol, Tuple

from repro.core.parsing import RawXidRecord
from repro.core.streaming import PersistenceAlarm
from repro.faults.xid import XID_CATALOG, Xid
from repro.fleet.registry import GpuHealth, IngestResult
from repro.util.timeutil import format_duration, format_timestamp

GpuKey = Tuple[str, str]


class Action(enum.Enum):
    """Operator action an alert recommends."""

    DRAIN_NODE = "drain_node"
    RESET_GPU = "reset_gpu"
    RETIRE_PAGE_AUDIT = "retire_page_audit"
    REPLACE_GPU = "replace_gpu"
    PAGE_SRE = "page_sre"


class Scope(enum.Enum):
    """Granularity the rule's state and cooldown apply at."""

    GPU = "gpu"
    NODE = "node"


@dataclass(frozen=True)
class AlertRule:
    """One declarative rule.

    Onset rules: fire when ``min_count`` onsets of any code in ``xids``
    land on one scope unit within ``window_seconds`` (and, if
    ``after_xid`` is set, only when that precursor code was seen on the
    same GPU within ``window_seconds`` before the triggering onset).

    Alarm rules (``on_alarm=True``): fire on a
    :class:`~repro.core.streaming.PersistenceAlarm` (``xids`` empty = any
    code).

    ``cooldown_seconds`` suppresses re-fires for the same scope unit, so
    a misbehaving part produces one actionable alert per cooldown, not an
    alert storm.
    """

    name: str
    description: str
    action: Action
    severity: str = "warning"  # "info" | "warning" | "critical"
    xids: Tuple[int, ...] = ()
    min_count: int = 1
    window_seconds: float = 3_600.0
    after_xid: Optional[int] = None
    on_alarm: bool = False
    scope: Scope = Scope.GPU
    cooldown_seconds: float = 1_800.0

    def __post_init__(self) -> None:
        if self.min_count < 1:
            raise ValueError("min_count must be >= 1")
        if self.window_seconds <= 0:
            raise ValueError("window_seconds must be positive")
        if not self.on_alarm and not self.xids:
            raise ValueError(f"rule {self.name!r} watches no XID codes")


@dataclass(frozen=True)
class Alert:
    """One fired rule, ready for a sink."""

    time: float
    rule: str
    action: Action
    severity: str
    node_id: str
    pci_bus: str
    xid: int
    summary: str
    details: Dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        return {
            "time": self.time,
            "timestamp": format_timestamp(self.time),
            "rule": self.rule,
            "action": self.action.value,
            "severity": self.severity,
            "node": self.node_id,
            "pci_bus": self.pci_bus,
            "xid": self.xid,
            "summary": self.summary,
            "details": self.details,
        }

    def render(self) -> str:
        return (
            f"ALERT [{self.severity}] {format_timestamp(self.time)} "
            f"{self.rule} -> {self.action.value}: {self.summary}"
        )


# ---------------------------------------------------------------------------
# Sinks
# ---------------------------------------------------------------------------


class AlertSink(Protocol):
    """Anything that can receive fired alerts."""

    def emit(self, alert: Alert) -> None: ...


class MemorySink:
    """Thread-safe in-memory sink (tests, snapshots)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._alerts: List[Alert] = []

    def emit(self, alert: Alert) -> None:
        with self._lock:
            self._alerts.append(alert)

    @property
    def alerts(self) -> List[Alert]:
        with self._lock:
            return list(self._alerts)


class StdoutSink:
    """Human-readable one-line-per-alert sink."""

    def __init__(self) -> None:
        self._lock = threading.Lock()

    def emit(self, alert: Alert) -> None:
        with self._lock:
            print(alert.render(), file=sys.stdout, flush=True)


class JsonLinesSink:
    """Append alerts as JSON lines to a file (the ops-pipeline format)."""

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        self._handle = open(self.path, "a", encoding="utf-8")

    def emit(self, alert: Alert) -> None:
        line = json.dumps(alert.to_dict())
        with self._lock:
            self._handle.write(line + "\n")
            self._handle.flush()

    def close(self) -> None:
        with self._lock:
            self._handle.close()


# ---------------------------------------------------------------------------
# Engine
# ---------------------------------------------------------------------------


@dataclass
class _RuleState:
    """Per-(rule, scope-unit) sliding state.

    Every field is *event time*: windows, cooldowns, and dedup key off the
    records' own timestamps, never the wall clock, so delivery pacing is
    irrelevant — a trace replayed at 100x (or flat-out from a store)
    fires exactly the alerts the live feed would have.
    """

    onsets: Deque[float] = field(default_factory=deque)
    last_fired: float = float("-inf")
    #: Latest event time observed for this scope unit (regression guard).
    last_event: float = float("-inf")

    def observe(self, event_time: float, horizon: float) -> None:
        """Advance to ``event_time``; reset on a new-timeline jump.

        A backward jump farther than ``horizon`` (the rule's full memory:
        window plus cooldown) means the feed restarted on an earlier
        timeline — a re-run demo emitter, a replay seeked back.  Carrying
        the old cooldown across would suppress every alert of the new
        pass, so the state starts over instead.
        """
        if event_time < self.last_event - horizon:
            self.onsets.clear()
            self.last_fired = float("-inf")
            self.last_event = event_time
        else:
            self.last_event = max(self.last_event, event_time)


class RuleEngine:
    """Evaluate rules against ingest facts; fan alerts out to sinks.

    Thread-safety: one internal lock around all rule state — evaluation is
    cheap (a few deque operations per rule), so a single lock is simpler
    and safely serves multi-threaded ingestion.

    Time base: purely *event time*.  All windows, precursor matches, and
    cooldowns compare record timestamps with record timestamps; the wall
    clock never enters, which is what makes accelerated replay (the
    ``serve --simulate`` demo at >1x, ``repro-delta replay``) exact.
    """

    def __init__(
        self, rules: Iterable[AlertRule], sinks: Iterable[AlertSink] = ()
    ) -> None:
        self.rules: Tuple[AlertRule, ...] = tuple(rules)
        names = [r.name for r in self.rules]
        if len(set(names)) != len(names):
            raise ValueError("duplicate rule names")
        self.sinks: List[AlertSink] = list(sinks)
        self._lock = threading.Lock()
        self._state: Dict[Tuple[str, GpuKey], _RuleState] = {}
        #: Per-GPU last onset time of each XID (precursor matching).
        self._last_onset: Dict[GpuKey, Dict[int, float]] = {}
        self.fired_counts: Dict[str, int] = {r.name: 0 for r in self.rules}

    # ------------------------------------------------------------------

    def observe(self, result: IngestResult) -> List[Alert]:
        """Evaluate every rule against what one ingested record did."""
        fired: List[Alert] = []
        if result.onset:
            fired += self.observe_onset(result.record, result.health)
        if result.alarm is not None:
            fired += self.observe_alarm(result.alarm)
        return fired

    def observe_onset(
        self, record: RawXidRecord, health: Optional[GpuHealth] = None
    ) -> List[Alert]:
        """Evaluate onset rules for one new coalesced-run start."""
        fired: List[Alert] = []
        gpu_key = record.gpu_key
        with self._lock:
            for rule in self.rules:
                if rule.on_alarm or record.xid not in rule.xids:
                    continue
                if rule.after_xid is not None:
                    seen = self._last_onset.get(gpu_key, {}).get(rule.after_xid)
                    # The precursor must lie within the window *before* the
                    # trigger; a "precursor" in the event-time future is a
                    # leftover from a pre-regression timeline.
                    if seen is None or not 0.0 <= record.time - seen <= rule.window_seconds:
                        continue
                scope_key = gpu_key if rule.scope is Scope.GPU else (record.node_id, "")
                state = self._state.setdefault((rule.name, scope_key), _RuleState())
                state.observe(record.time, rule.window_seconds + rule.cooldown_seconds)
                state.onsets.append(record.time)
                cutoff = record.time - rule.window_seconds
                while state.onsets and state.onsets[0] < cutoff:
                    state.onsets.popleft()
                if len(state.onsets) < rule.min_count:
                    continue
                if record.time - state.last_fired < rule.cooldown_seconds:
                    continue
                state.last_fired = record.time
                fired.append(self._make_onset_alert(rule, record, len(state.onsets), health))
            # Record the onset for precursor matching *after* evaluation so
            # a code can't act as its own precursor on the same record.
            self._last_onset.setdefault(gpu_key, {})[record.xid] = record.time
        self._dispatch(fired)
        return fired

    def observe_alarm(self, alarm: PersistenceAlarm) -> List[Alert]:
        """Evaluate persistence-alarm rules."""
        fired: List[Alert] = []
        gpu_key = (alarm.node_id, alarm.pci_bus)
        with self._lock:
            for rule in self.rules:
                if not rule.on_alarm:
                    continue
                if rule.xids and alarm.xid not in rule.xids:
                    continue
                now = alarm.start_time + alarm.open_persistence
                scope_key = gpu_key if rule.scope is Scope.GPU else (alarm.node_id, "")
                state = self._state.setdefault((rule.name, scope_key), _RuleState())
                state.observe(now, rule.window_seconds + rule.cooldown_seconds)
                if now - state.last_fired < rule.cooldown_seconds:
                    continue
                state.last_fired = now
                abbrev = _abbrev(alarm.xid)
                fired.append(
                    Alert(
                        time=now,
                        rule=rule.name,
                        action=rule.action,
                        severity=rule.severity,
                        node_id=alarm.node_id,
                        pci_bus=alarm.pci_bus,
                        xid=alarm.xid,
                        summary=(
                            f"{alarm.node_id}/{alarm.pci_bus} XID {alarm.xid} "
                            f"({abbrev}) open for "
                            f"{format_duration(alarm.open_persistence)} "
                            f"({alarm.n_raw:,} duplicate lines)"
                        ),
                        details={
                            "open_persistence": alarm.open_persistence,
                            "n_raw": alarm.n_raw,
                            "start_time": alarm.start_time,
                        },
                    )
                )
        self._dispatch(fired)
        return fired

    # ------------------------------------------------------------------

    def _make_onset_alert(
        self,
        rule: AlertRule,
        record: RawXidRecord,
        window_count: int,
        health: Optional[GpuHealth],
    ) -> Alert:
        abbrev = _abbrev(record.xid)
        unit = record.node_id if rule.scope is Scope.NODE else (
            f"{record.node_id}/{record.pci_bus}"
        )
        summary = f"{unit} XID {record.xid} ({abbrev})"
        if rule.min_count > 1:
            summary += (
                f" x{window_count} within "
                f"{format_duration(rule.window_seconds)}"
            )
        if rule.after_xid is not None:
            summary += f" following XID {rule.after_xid}"
        details: Dict[str, object] = {
            "window_count": window_count,
            "window_seconds": rule.window_seconds,
        }
        if health is not None:
            details["gpu_total_onsets"] = health.total_onsets
            details["gpu_risk_score"] = round(health.risk_score, 4)
        return Alert(
            time=record.time,
            rule=rule.name,
            action=rule.action,
            severity=rule.severity,
            node_id=record.node_id,
            pci_bus=record.pci_bus,
            xid=record.xid,
            summary=summary,
            details=details,
        )

    def _dispatch(self, alerts: List[Alert]) -> None:
        if not alerts:
            return
        with self._lock:
            for alert in alerts:
                self.fired_counts[alert.rule] = self.fired_counts.get(alert.rule, 0) + 1
        for sink in self.sinks:
            for alert in alerts:
                sink.emit(alert)

    def total_fired(self) -> int:
        with self._lock:
            return sum(self.fired_counts.values())


def _abbrev(xid: int) -> str:
    try:
        return XID_CATALOG[Xid(xid)].abbreviation
    except (ValueError, KeyError):
        return f"XID{xid}"


# ---------------------------------------------------------------------------
# The default catalog (paper Section 4 guidance)
# ---------------------------------------------------------------------------


def default_rules() -> Tuple[AlertRule, ...]:
    """The paper's operator guidance as a rule catalog."""
    return (
        AlertRule(
            name="xid79-fallen-off-bus",
            description=(
                "GPU fell off the system bus — hardware loss; drain the "
                "node for SRE intervention (Section 4.4.1)."
            ),
            action=Action.DRAIN_NODE,
            severity="critical",
            xids=(int(Xid.FALLEN_OFF_BUS),),
            min_count=1,
            window_seconds=60.0,
            scope=Scope.NODE,
            cooldown_seconds=3_600.0,
        ),
        AlertRule(
            name="xid119-gsp-repeat",
            description=(
                "Repeated GSP RPC timeouts on one GPU — reset the GPU "
                "before the firmware wedges the node (Section 5.1)."
            ),
            action=Action.RESET_GPU,
            severity="warning",
            xids=(int(Xid.GSP),),
            min_count=3,
            window_seconds=6 * 3_600.0,
            cooldown_seconds=3_600.0,
        ),
        AlertRule(
            name="dbe-remap-chain",
            description=(
                "Row-remapping event/failure following a double-bit ECC "
                "error — audit retired pages; an RRF means spare rows are "
                "running out (Section 4.4.3)."
            ),
            action=Action.RETIRE_PAGE_AUDIT,
            severity="warning",
            xids=(int(Xid.RRE), int(Xid.RRF)),
            min_count=1,
            window_seconds=3_600.0,
            after_xid=int(Xid.DBE),
            cooldown_seconds=1_800.0,
        ),
        AlertRule(
            name="uncontained-burst",
            description=(
                "Bursty uncontained-ECC offender — the defective-part "
                "signature; replace the GPU (Section 4.2 (iii))."
            ),
            action=Action.REPLACE_GPU,
            severity="critical",
            xids=(int(Xid.UNCONTAINED),),
            min_count=5,
            window_seconds=3_600.0,
            cooldown_seconds=7_200.0,
        ),
        AlertRule(
            name="persistence-tail",
            description=(
                "An open error run crossed the persistence-alarm "
                "threshold — the Section 4.3 live watchdog; page an SRE."
            ),
            action=Action.PAGE_SRE,
            severity="critical",
            on_alarm=True,
            cooldown_seconds=1_800.0,
        ),
    )
