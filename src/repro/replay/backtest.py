"""Score the fleet stack's alerts and predictions against ground truth.

A backtest replays stored history through the real stack
(:class:`~repro.replay.engine.ReplayEngine`) and grades what came out:

* **ground truth** — critical failures are XID-79 (GPU fallen off the
  bus) onsets, merged per node into *incidents* (one hardware loss can
  emit several onsets while the node thrashes);
* **alert scoring** — an alert is *matched* when an incident lands on
  its node within the forward ``horizon_seconds`` (an alert at the
  incident instant matches with zero lead); per-rule precision, incident
  recall, and the false-alarm rate per GPU-day fall out;
* **lead time** — per incident, every in-horizon alert contributes
  ``incident - alert`` seconds; the distribution is reported per rule
  and as the per-incident best (earliest alert) summary;
* **prediction scoring** — a second pass over the same history extracts
  completed runs, fits the Section-4.3 persistence predictor on the
  earlier ``train_fraction`` and sweeps a fixed threshold grid on the
  held-out tail (PR curve + average precision).

The scorecard is a standard :class:`~repro.results.ExperimentResult`
(schema ``repro.results/1``), and it is *reproducible to the byte*: the
run id digests the scoring config and the source fingerprint, the
manifest timestamp is the history's own ``time_max``, and nothing in the
scoring path reads the wall clock or an RNG — so the same history gives
the same bytes at any replay speed, on any worker count, on any day.
"""

from __future__ import annotations

import statistics
from dataclasses import asdict, dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro import __version__
from repro.core.parsing import RawXidRecord
from repro.core.prediction import (
    OBSERVE_SECONDS,
    PersistencePredictor,
    average_precision,
    extract_runs,
    pr_curve,
)
from repro.replay.clock import ReplayPacer
from repro.replay.engine import OnsetEvent, ReplayEngine, ReplayOutcome
from repro.results import (
    ExperimentResult,
    Metric,
    ResultTable,
    RunManifest,
    config_digest,
)

#: A fresh, re-iterable view of the history under test.  Called twice:
#: once for the replay pass, once for the prediction pass.
RecordStreamFactory = Callable[[], Iterable[RawXidRecord]]

#: Fixed operating-point grid for the predictor sweep — explicit so the
#: PR table's shape (and bytes) never depends on the score values.
DEFAULT_THRESHOLDS: Tuple[float, ...] = tuple(
    round(0.05 * step, 2) for step in range(1, 20)
)


@dataclass(frozen=True)
class BacktestConfig:
    """Scoring knobs.  Pacing speed is deliberately *not* here: speed
    changes delivery timing, never results, so it must not perturb the
    run id."""

    #: The ground-truth critical failure code (XID 79, hardware loss).
    critical_xid: int = 79
    #: Per-node onsets of the critical code closer than this merge into
    #: one incident.
    incident_merge_seconds: float = 3_600.0
    #: Forward window an alert has to "call" an incident.
    horizon_seconds: float = 3_600.0
    #: Predictor pass.
    long_threshold_seconds: float = 600.0
    observe_seconds: float = OBSERVE_SECONDS
    train_fraction: float = 0.5
    thresholds: Tuple[float, ...] = DEFAULT_THRESHOLDS

    def __post_init__(self) -> None:
        if self.incident_merge_seconds <= 0 or self.horizon_seconds <= 0:
            raise ValueError("merge and horizon windows must be positive")
        if not 0.0 < self.train_fraction < 1.0:
            raise ValueError("train_fraction must be in (0, 1)")


@dataclass(frozen=True)
class Incident:
    """One ground-truth critical failure (merged XID-79 episode)."""

    node_id: str
    time: float
    last_time: float
    n_onsets: int


def extract_incidents(
    onset_events: Sequence[OnsetEvent],
    *,
    critical_xid: int,
    merge_seconds: float,
) -> Tuple[Incident, ...]:
    """Merge per-node critical onsets into incidents (gap rule)."""
    per_node: Dict[str, List[float]] = {}
    for event in onset_events:
        if event.xid == critical_xid:
            per_node.setdefault(event.node_id, []).append(event.time)
    incidents: List[Incident] = []
    for node_id in sorted(per_node):
        times = sorted(per_node[node_id])
        start = last = times[0]
        count = 1
        for moment in times[1:]:
            if moment - last > merge_seconds:
                incidents.append(Incident(node_id, start, last, count))
                start, count = moment, 0
            last = moment
            count += 1
        incidents.append(Incident(node_id, start, last, count))
    incidents.sort(key=lambda i: (i.time, i.node_id))
    return tuple(incidents)


@dataclass(frozen=True)
class RuleScore:
    """One rule's scorecard row."""

    rule: str
    alerts: int
    matched: int
    recalled_incidents: int
    leads: Tuple[float, ...]

    @property
    def precision(self) -> float:
        return self.matched / self.alerts if self.alerts else 0.0

    def recall(self, n_incidents: int) -> float:
        return self.recalled_incidents / n_incidents if n_incidents else 0.0


def _score_rules(
    outcome: ReplayOutcome,
    incidents: Sequence[Incident],
    rule_names: Sequence[str],
    horizon: float,
) -> List[RuleScore]:
    scores: List[RuleScore] = []
    for name in rule_names:
        alerts = outcome.alerts_of(name)
        matched = 0
        leads: List[float] = []
        recalled = set()
        for alert in alerts:
            hit = False
            for index, incident in enumerate(incidents):
                if incident.node_id != alert.node_id:
                    continue
                lead = incident.time - alert.time
                if 0.0 <= lead <= horizon:
                    hit = True
                    leads.append(lead)
                    recalled.add(index)
            if hit:
                matched += 1
        scores.append(
            RuleScore(
                rule=name,
                alerts=len(alerts),
                matched=matched,
                recalled_incidents=len(recalled),
                leads=tuple(sorted(leads)),
            )
        )
    return scores


def _best_leads(
    outcome: ReplayOutcome, incidents: Sequence[Incident], horizon: float
) -> List[float]:
    """Per incident: the earliest in-horizon alert's lead (its best call)."""
    best: List[float] = []
    for incident in incidents:
        leads = [
            incident.time - alert.time
            for alert in outcome.alerts
            if alert.node_id == incident.node_id
            and 0.0 <= incident.time - alert.time <= horizon
        ]
        if leads:
            best.append(max(leads))
    return best


def _round(value: float) -> float:
    return round(float(value), 6)


def _lead_row(name: str, leads: Sequence[float]) -> Tuple:
    if not leads:
        return (name, 0, 0.0, 0.0, 0.0, 0.0)
    return (
        name,
        len(leads),
        _round(min(leads)),
        _round(statistics.median(leads)),
        _round(statistics.fmean(leads)),
        _round(max(leads)),
    )


def run_backtest(
    source_factory: RecordStreamFactory,
    config: BacktestConfig = BacktestConfig(),
    *,
    pacer: Optional[ReplayPacer] = None,
    source_label: str = "",
    source_fingerprint: str = "",
) -> ExperimentResult:
    """Replay, score, and return the typed scorecard."""
    engine = ReplayEngine(pacer=pacer)
    outcome = engine.replay(source_factory())

    incidents = extract_incidents(
        outcome.onset_events,
        critical_xid=config.critical_xid,
        merge_seconds=config.incident_merge_seconds,
    )
    rule_scores = _score_rules(
        outcome, incidents, engine.rule_names, config.horizon_seconds
    )
    matched_total = sum(s.matched for s in rule_scores)
    alerts_total = len(outcome.alerts)
    recalled_any = set()
    for index, incident in enumerate(incidents):
        for alert in outcome.alerts:
            if (
                alert.node_id == incident.node_id
                and 0.0 <= incident.time - alert.time <= config.horizon_seconds
            ):
                recalled_any.add(index)
                break
    span_days = outcome.span_seconds / 86_400.0
    gpu_days = len(outcome.serials) * span_days
    false_alarms = alerts_total - matched_total
    best_leads = _best_leads(outcome, incidents, config.horizon_seconds)

    # ---- prediction pass -------------------------------------------------
    examples = extract_runs(source_factory(), observe_seconds=config.observe_seconds)
    n_train = int(len(examples) * config.train_fraction)
    train, test = examples[:n_train], examples[n_train:]
    pr_rows: List[Tuple] = []
    ap = 0.0
    test_positives = 0
    if train and test:
        predictor = PersistencePredictor(
            long_threshold_seconds=config.long_threshold_seconds
        )
        predictor.fit(train)
        labels = [bool(v) for v in predictor.labels(test)]
        scores = [float(s) for s in predictor.predict_proba(test)]
        test_positives = sum(labels)
        for point in pr_curve(labels, scores, config.thresholds):
            pr_rows.append(
                (
                    point.threshold,
                    _round(point.precision),
                    _round(point.recall),
                    point.predicted_positives,
                )
            )
        ap = average_precision(labels, scores)

    # ---- the scorecard ---------------------------------------------------
    n_incidents = len(incidents)
    scorecard_rows = tuple(
        (
            s.rule,
            s.alerts,
            s.matched,
            _round(s.precision),
            _round(s.recall(n_incidents)),
            _round((s.alerts - s.matched) / gpu_days) if gpu_days else 0.0,
            _round(statistics.median(s.leads)) if s.leads else 0.0,
        )
        for s in rule_scores
    )
    lead_rows = tuple(
        _lead_row(s.rule, s.leads) for s in rule_scores if s.leads
    ) + ((_lead_row("(per-incident best)", best_leads),) if best_leads else ())

    run_id = "replay-" + config_digest(
        {
            "backtest": asdict(config),
            "rules": list(engine.rule_names),
            "source": source_fingerprint,
        }
    )
    manifest = RunManifest(
        run_id=run_id,
        workers=None,
        window_hours=_round(outcome.span_seconds / 3_600.0),
        n_nodes=len({node for node, _ in outcome.serials}),
        n_gpus=len(outcome.serials),
        engine="replay",
        dataset=source_label or None,
        config_hashes={
            "backtest": config_digest(config),
            "source": source_fingerprint,
        },
        package_version=__version__,
        # Event time, not wall time: the artifact's bytes must not
        # depend on when the backtest ran.
        created_unix=outcome.time_max,
    )
    metrics = (
        Metric("records_replayed", outcome.records),
        Metric("error_onsets", outcome.onsets),
        Metric("persistence_alarms", outcome.alarms),
        Metric("gpu_serials", len(outcome.serials)),
        Metric("window_days", _round(span_days), unit="days"),
        Metric("gpu_days", _round(gpu_days), unit="GPU-days"),
        Metric("incidents", n_incidents,
               support=n_incidents),
        Metric("alerts_total", alerts_total),
        Metric("alerts_matched", matched_total),
        Metric(
            "alert_precision",
            _round(matched_total / alerts_total) if alerts_total else 0.0,
            support=alerts_total,
        ),
        Metric(
            "incident_recall",
            _round(len(recalled_any) / n_incidents) if n_incidents else 0.0,
            support=n_incidents,
        ),
        Metric(
            "false_alarms_per_gpu_day",
            _round(false_alarms / gpu_days) if gpu_days else 0.0,
            unit="/GPU-day",
        ),
        Metric(
            "median_lead_seconds",
            _round(statistics.median(best_leads)) if best_leads else 0.0,
            unit="s",
            support=len(best_leads),
        ),
        Metric(
            "max_lead_seconds",
            _round(max(best_leads)) if best_leads else 0.0,
            unit="s",
        ),
        Metric("predictor_runs_train", len(train)),
        Metric("predictor_runs_test", len(test)),
        Metric("predictor_test_positives", test_positives),
        Metric(
            "predictor_average_precision",
            _round(ap),
            support=len(test),
        ),
    )
    tables = (
        ResultTable(
            title="Per-rule alert scorecard",
            headers=("rule", "alerts", "matched", "precision", "recall",
                     "false/GPU-day", "median lead (s)"),
            rows=scorecard_rows,
        ),
        ResultTable(
            title="Lead-time distribution (alert -> critical failure)",
            headers=("rule", "pairs", "min (s)", "median (s)", "mean (s)",
                     "max (s)"),
            rows=lead_rows,
        ),
        ResultTable(
            title="Predictor PR curve (held-out runs)",
            headers=("threshold", "precision", "recall", "predicted"),
            rows=tuple(pr_rows),
        ),
    )
    return ExperimentResult(
        experiment_id="replay.backtest",
        paper_artifact="Section 4 operator guidance (backtested)",
        title="Replay backtest: alerts and predictions vs ground truth",
        renderer="replay_backtest",
        metrics=metrics,
        tables=tables,
        manifest=manifest,
    )
