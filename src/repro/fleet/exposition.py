"""Prometheus text-format metrics exposition over stdlib ``http.server``.

Two pieces:

* :func:`render_prometheus` — serialize a service snapshot (registry,
  rule engine, tailer stats and self-observability counters) into
  Prometheus exposition format 0.0.4;
* :class:`MetricsServer` — a threaded HTTP server with ``/metrics``
  (scrape endpoint) and ``/healthz`` (liveness), bindable to an
  ephemeral port for tests.

No third-party client library: the text format is a stable, trivial
serialization, and writing it directly keeps the service dependency-free.
"""

from __future__ import annotations

import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.faults.xid import XID_CATALOG, Xid
from repro.fleet.registry import RATE_WINDOW_SECONDS, GpuHealth, HealthRegistry
from repro.fleet.rules import RuleEngine
from repro.fleet.tailer import DirectoryTailer

#: How many per-GPU risk gauges to expose (highest risk first); the full
#: fleet would blow up scrape cardinality, the top of the tail is what the
#: paper says to watch.
RISK_TOP_K = 16


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _fmt_labels(labels: Dict[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{name}="{_escape_label(value)}"' for name, value in sorted(labels.items())
    )
    return "{" + inner + "}"


class _MetricsBuilder:
    """Accumulates HELP/TYPE headers and samples in exposition format."""

    def __init__(self) -> None:
        self._lines: List[str] = []

    def metric(
        self,
        name: str,
        kind: str,
        help_text: str,
        samples: Iterable[Tuple[Dict[str, str], float]],
    ) -> None:
        self._lines.append(f"# HELP {name} {help_text}")
        self._lines.append(f"# TYPE {name} {kind}")
        for labels, value in samples:
            if value == float("inf"):
                rendered = "+Inf"
            elif value != value:  # NaN
                rendered = "NaN"
            elif float(value).is_integer():
                rendered = str(int(value))
            else:
                rendered = repr(float(value))
            self._lines.append(f"{name}{_fmt_labels(labels)} {rendered}")

    def render(self) -> str:
        return "\n".join(self._lines) + "\n"


def _xid_labels(xid: int) -> Dict[str, str]:
    try:
        abbrev = XID_CATALOG[Xid(xid)].abbreviation
    except (ValueError, KeyError):
        abbrev = f"XID{xid}"
    return {"xid": str(xid), "abbrev": abbrev}


def render_prometheus(
    registry: HealthRegistry,
    engine: RuleEngine,
    tailer: DirectoryTailer,
    extra_gauges: Dict[str, float],
    counters: Dict[str, float],
) -> str:
    """One scrape of the fleet health service's state.

    ``counters`` holds the self-observability series:
    ``fleet.records_ingested`` always, and ``store.flushes`` /
    ``store.flush_seconds`` / ``store.records_written`` given a store.
    """
    out = _MetricsBuilder()
    snapshot: List[GpuHealth] = registry.snapshot()

    out.metric(
        "repro_fleet_tracked_gpus", "gauge",
        "GPUs with at least one XID record ingested.",
        [({}, float(len(snapshot)))],
    )
    out.metric(
        "repro_fleet_records_ingested_total", "counter",
        "Raw NVRM Xid lines ingested into the health registry.",
        [({}, counters["fleet.records_ingested"])],
    )
    onsets = registry.onset_counts()
    out.metric(
        "repro_fleet_error_onsets_total", "counter",
        "Coalesced error onsets (each eventual coalesced error counted "
        "once, at its first line).",
        [(_xid_labels(xid), float(count)) for xid, count in sorted(onsets.items())],
    )
    out.metric(
        "repro_fleet_open_runs", "gauge",
        "Error runs currently open in the streaming coalescer.",
        [({}, float(registry.open_runs()))],
    )
    out.metric(
        "repro_fleet_persistence_alarms_total", "counter",
        "Section-4.3 persistence alarms raised on still-open runs.",
        [({}, float(registry.persistence_alarms()))],
    )

    top = sorted(snapshot, key=lambda h: h.risk_score, reverse=True)[:RISK_TOP_K]
    out.metric(
        "repro_fleet_gpu_risk_score", "gauge",
        f"Online long-persistence risk score, top {RISK_TOP_K} GPUs.",
        [
            ({"node": h.node_id, "pci_bus": h.pci_bus}, h.risk_score)
            for h in top
            if h.risk_score > 0.0
        ],
    )
    out.metric(
        "repro_fleet_gpu_error_rate_per_hour", "gauge",
        f"Error onsets per hour over the rolling {RATE_WINDOW_SECONDS:.0f}s "
        f"window, top {RISK_TOP_K} GPUs by rate.",
        [
            (
                {"node": h.node_id, "pci_bus": h.pci_bus},
                h.error_rate_per_hour(),
            )
            for h in sorted(
                snapshot,
                key=lambda h: h.error_rate_per_hour(),
                reverse=True,
            )[:RISK_TOP_K]
            if h.recent
        ],
    )

    out.metric(
        "repro_fleet_alerts_total", "counter",
        "Alerts fired per rule since service start.",
        [
            (
                {"rule": rule.name, "action": rule.action.value},
                float(engine.fired_counts[rule.name]),
            )
            for rule in sorted(engine.rules, key=lambda rule: rule.name)
        ],
    )

    stats = tailer.stats()
    out.metric(
        "repro_fleet_tailer_files", "gauge",
        "Log files currently tracked by the tailer.",
        [({}, float(stats.files))],
    )
    out.metric(
        "repro_fleet_tailer_lines_total", "counter",
        "Complete log lines read by the tailer.",
        [({}, float(stats.lines_seen))],
    )
    out.metric(
        "repro_fleet_tailer_bytes_total", "counter",
        "Bytes read from followed log files.",
        [({}, float(stats.bytes_read))],
    )

    if "store.flushes" in counters:
        out.metric(
            "repro_fleet_store_flushes_total", "counter",
            "Segment flushes performed by the durable store writer.",
            [({}, float(counters["store.flushes"]))],
        )
        out.metric(
            "repro_fleet_store_flush_seconds_total", "counter",
            "Wall seconds spent flushing segments to the store.",
            [({}, float(counters.get("store.flush_seconds", 0.0)))],
        )
        out.metric(
            "repro_fleet_store_records_written_total", "counter",
            "Records persisted into the store by the writer.",
            [({}, float(counters.get("store.records_written", 0.0)))],
        )

    for name, value in extra_gauges.items():
        out.metric(name, "gauge", "Service-supplied gauge.", [({}, value)])
    return out.render()


# ---------------------------------------------------------------------------
# HTTP server
# ---------------------------------------------------------------------------


class MetricsServer:
    """Threaded HTTP server exposing ``/metrics`` and ``/healthz``.

    ``provider`` is called per scrape (under no lock — the registry's own
    lock makes reads consistent enough for monitoring).  Port 0
    binds an ephemeral port; read it back from :attr:`port`.
    """

    def __init__(
        self,
        provider: Callable[[], str],
        *,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.provider = provider
        outer = self

        class Handler(BaseHTTPRequestHandler):
            def do_GET(self) -> None:  # noqa: N802 (stdlib API name)
                if self.path.split("?")[0] == "/metrics":
                    try:
                        body = outer.provider().encode("utf-8")
                    except Exception as exc:  # surface scrape failures as 500s
                        self.send_error(500, explain=str(exc))
                        return
                    self.send_response(200)
                    self.send_header(
                        "Content-Type", "text/plain; version=0.0.4; charset=utf-8"
                    )
                    self.send_header("Content-Length", str(len(body)))
                    self.end_headers()
                    self.wfile.write(body)
                elif self.path.split("?")[0] == "/healthz":
                    body = b"ok\n"
                    self.send_response(200)
                    self.send_header("Content-Type", "text/plain; charset=utf-8")
                    self.send_header("Content-Length", str(len(body)))
                    self.end_headers()
                    self.wfile.write(body)
                else:
                    self.send_error(404)

            def log_message(self, fmt: str, *args: object) -> None:
                pass  # scrapes are high-frequency; keep the console quiet

        self._server = ThreadingHTTPServer((host, port), Handler)
        self._server.daemon_threads = True
        self._thread: Optional[threading.Thread] = None

    @property
    def port(self) -> int:
        return self._server.server_address[1]

    @property
    def url(self) -> str:
        host = self._server.server_address[0]
        return f"http://{host}:{self.port}/metrics"

    def start(self) -> "MetricsServer":
        if self._thread is not None:
            raise RuntimeError("metrics server already started")
        self._thread = threading.Thread(
            target=self._server.serve_forever, daemon=True, name="fleet-metrics"
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
