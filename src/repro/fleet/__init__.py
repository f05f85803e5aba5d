"""Fleet health service: live monitoring built on the streaming coalescer.

The always-on counterpart of the batch characterization — the operational
shape Section 4.3's guidance ("continuously monitor the errors at the
tail of the GPU error persistence distribution") actually requires:

* :mod:`repro.fleet.tailer` — live-log tailing that the service's one
  ingest thread polls, in file-name order, a byte budget per file per
  pass; no queue and no global sort;
* :mod:`repro.fleet.registry` — per-GPU health state: rolling onset
  rates, MTBE, open-run persistence, online risk scores;
* :mod:`repro.fleet.rules` — the paper's operator guidance as declarative
  alert rules with pluggable sinks;
* :mod:`repro.fleet.exposition` — Prometheus text-format ``/metrics``
  over stdlib ``http.server``;
* :mod:`repro.fleet.service` — the wiring (``repro-delta serve``);
* :mod:`repro.fleet.emitter` / :mod:`repro.fleet.demo` — live replay of
  injected fault traces for end-to-end simulation;
* :mod:`repro.fleet.risk` — the trained persistence predictor as an
  online risk scorer.
"""

from repro.fleet.emitter import LiveLogEmitter
from repro.fleet.exposition import MetricsServer, render_prometheus
from repro.fleet.registry import (
    GpuHealth,
    HealthRegistry,
    IngestResult,
    OpenRunView,
    default_risk_scorer,
)
from repro.fleet.rules import (
    Action,
    Alert,
    AlertRule,
    JsonLinesSink,
    MemorySink,
    RuleEngine,
    StdoutSink,
    default_rules,
)
from repro.fleet.service import FleetHealthService, FleetServiceConfig
from repro.fleet.tailer import DirectoryTailer, LogTailer

__all__ = [
    "Action",
    "Alert",
    "AlertRule",
    "DirectoryTailer",
    "FleetHealthService",
    "FleetServiceConfig",
    "GpuHealth",
    "HealthRegistry",
    "IngestResult",
    "JsonLinesSink",
    "LiveLogEmitter",
    "LogTailer",
    "MemorySink",
    "MetricsServer",
    "OpenRunView",
    "RuleEngine",
    "StdoutSink",
    "default_risk_scorer",
    "default_rules",
    "render_prometheus",
]
