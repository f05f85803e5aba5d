"""Deterministic replay & backtest: drive the live stack from history.

The offline twin of :mod:`repro.fleet`: stream stored history — a
columnar event store (one pushdown query per pass, through
:class:`~repro.store.ReplayCursor`) or a raw log directory — through the
*same* registry, rule engine, and risk scorer the live service runs,
paced by a virtual clock at any speed from 1x to unbounded, and score
what fired against ground truth.  Because every piece of alerting state keys off event
time, the resulting scorecard is byte-identical across replay speeds,
store-ingest worker counts, and repeated runs.  See ``docs/replay.md``.
"""

from repro.replay.backtest import (
    BacktestConfig,
    DEFAULT_THRESHOLDS,
    Incident,
    RuleScore,
    extract_incidents,
    run_backtest,
)
from repro.replay.clock import ReplayPacer, VirtualClock
from repro.replay.engine import OnsetEvent, ReplayEngine, ReplayOutcome

__all__ = [
    "BacktestConfig",
    "DEFAULT_THRESHOLDS",
    "Incident",
    "OnsetEvent",
    "ReplayEngine",
    "ReplayOutcome",
    "ReplayPacer",
    "RuleScore",
    "VirtualClock",
    "extract_incidents",
    "run_backtest",
]
