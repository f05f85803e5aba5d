"""The fleet health service: log files -> registry -> rules -> exposition.

:class:`FleetHealthService` owns the whole live path:

* one ingest thread polls a :class:`~repro.fleet.tailer.DirectoryTailer`
  over the per-node log files; it feeds the rows of each batch the tailer
  parses to the :class:`~repro.fleet.registry.HealthRegistry` (one
  streaming coalescer with ``keep_closed=False`` — live memory stays
  O(open runs)), passes each result to the
  :class:`~repro.fleet.rules.RuleEngine`, and, given a store, hands the
  batch to a :class:`~repro.store.writer.StoreWriter`;
* an optional :class:`~repro.fleet.exposition.MetricsServer` serves
  Prometheus text format at ``/metrics``.

Nothing on this path materializes or sorts the log volume, and nothing
queues between the files and the registry.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional, Sequence, Tuple

from repro.fleet.exposition import MetricsServer, render_prometheus
from repro.fleet.registry import HealthRegistry, RiskScorer
from repro.fleet.rules import AlertSink, RuleEngine, default_rules
from repro.fleet.tailer import DirectoryTailer

#: How long :meth:`FleetHealthService.stop` waits for the ingest thread.
STOP_TIMEOUT_SECONDS = 30.0
#: Ingestion this long without a record counts as idle.
IDLE_SECONDS = 0.3
#: Seconds the ingest thread waits after a pass that read nothing.
POLL_INTERVAL = 0.05


@dataclass(frozen=True)
class FleetServiceConfig:
    """Deployment settings of one service instance."""

    logs_dir: Path
    #: Open-run persistence that raises a Section-4.3 alarm.
    alarm_after_seconds: float = 1_800.0
    #: Metrics endpoint; ``None`` disables the HTTP server entirely,
    #: port 0 binds an ephemeral port.
    metrics_port: Optional[int] = 0
    metrics_host: str = "127.0.0.1"
    #: Durable history: when set, every ingested record also lands in a
    #: columnar event store at this directory (``docs/store.md``), and on
    #: restart the registry warm-starts by replaying the store — the
    #: service survives its own restarts with per-GPU history intact.
    store_dir: Optional[Path] = None


class FleetHealthService:
    """Long-running live monitoring over a directory of node syslogs."""

    def __init__(
        self,
        config: FleetServiceConfig,
        *,
        sinks: Sequence[AlertSink] = (),
        risk_scorer: Optional[RiskScorer] = None,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self.config = config
        #: Injectable wall-clock pair.  All *analytic* state keys off
        #: record event time; the clock only feeds operational readings
        #: (uptime, staleness, wait helpers), so tests and replay drivers
        #: can substitute a virtual clock without changing results.
        self.clock = clock
        self.sleep = sleep
        self.registry = HealthRegistry(
            alarm_after_seconds=config.alarm_after_seconds,
            risk_scorer=risk_scorer,
            clock=clock,
        )
        self.engine = RuleEngine(default_rules(), sinks=sinks)
        self._sinks: Tuple[AlertSink, ...] = tuple(sinks)
        self.store = None
        self.store_writer = None
        self.records_replayed = 0
        from_start = True
        if config.store_dir is not None:
            from repro.store import EventStore, StoreWriter

            self.store = EventStore.open_or_create(config.store_dir)
            self.store_writer = StoreWriter(self.store)
            # With history already durable, replay it into the registry at
            # start() and tail only what the files present now gain —
            # re-reading them from the top would double-ingest everything
            # the store already holds.  A file created later is new, and
            # the tailer reads it from its first byte.
            from_start = not self.store.n_records
        self.tailer = DirectoryTailer(config.logs_dir, from_start=from_start)
        self.metrics_server: Optional[MetricsServer] = None
        if config.metrics_port is not None:
            self.metrics_server = MetricsServer(
                self.render_metrics,
                host=config.metrics_host,
                port=config.metrics_port,
            )
        self._consumer: Optional[threading.Thread] = None
        self._stop = threading.Event()
        #: What killed the ingest thread, re-raised by :meth:`stop`.
        self._ingest_error: Optional[Exception] = None
        self._started = False
        self._stopped = False
        self.records_ingested = 0
        self.started_monotonic: Optional[float] = None

    # ------------------------------------------------------------------

    def start(self) -> "FleetHealthService":
        if self._started:
            raise RuntimeError("service already started")
        self._started = True
        self.started_monotonic = self.clock()
        if self.metrics_server is not None:
            self.metrics_server.start()
        self._replay_store()
        self._consumer = threading.Thread(
            target=self._consume, daemon=True, name="fleet-ingest"
        )
        self._consumer.start()
        return self

    def stop(self) -> None:
        """Read the files to their current end, then shut the endpoint down.

        Raises whatever killed the ingest thread, after that shutdown.
        """
        if not self._started or self._stopped:
            return
        self._stopped = True
        self._stop.set()
        if self._consumer is not None:
            self._consumer.join(STOP_TIMEOUT_SECONDS)
        if self.metrics_server is not None:
            self.metrics_server.stop()
        # File-backed sinks buffer alerts written from the ingest thread;
        # closing them here guarantees the final flush regardless of how
        # the service is driven (CLI, tests, or a replay harness).
        for sink in self._sinks:
            close = getattr(sink, "close", None)
            if callable(close):
                close()
        if self._ingest_error is not None:
            raise self._ingest_error

    def _replay_store(self) -> None:
        """Warm-start the registry from durable history (restart path).

        Replayed records feed the registry only — the rule engine stays
        out of it, so alerts that already fired in a previous life are
        not re-fired on every restart.
        """
        if self.store is None or not self.store.n_records:
            return
        for record in self.store.query():
            self.registry.ingest(record)
            self.records_replayed += 1

    def _consume(self) -> None:
        """Ingest thread: poll the files; each batch's rows feed the
        registry, then the rules, and the rows they took go to the store.

        After a pass that reads nothing it flushes a store buffer whose
        time is due and waits :data:`POLL_INTERVAL`; once :meth:`stop` is
        called it keeps polling until a whole pass reads nothing.
        """
        registry, engine, writer = self.registry, self.engine, self.store_writer
        tailer = self.tailer
        try:
            try:
                while True:
                    stopping = self._stop.is_set()
                    for batch in tailer.poll():
                        taken = 0
                        try:
                            for record in batch:
                                result = registry.ingest(record)
                                self.records_ingested += 1
                                engine.observe(result)
                                taken += 1
                        finally:
                            # A failing row and those after it stay out.
                            if writer is not None:
                                writer.write(batch.take(slice(taken)))
                    if not tailer.idle:
                        continue
                    if stopping:
                        break
                    if writer is not None:
                        writer.flush_if_due()
                    self._stop.wait(POLL_INTERVAL)
            finally:
                if writer is not None:
                    writer.close()
        except Exception as error:  # raised again by stop()
            self._ingest_error = error

    # ------------------------------------------------------------------

    @property
    def metrics_url(self) -> Optional[str]:
        return None if self.metrics_server is None else self.metrics_server.url

    def render_metrics(self) -> str:
        extra = {}
        if self.started_monotonic is not None:
            extra["repro_fleet_uptime_seconds"] = (
                self.clock() - self.started_monotonic
            )
        ingest_age = self.registry.ingest_age_seconds()
        if ingest_age is not None:
            extra["repro_fleet_ingest_age_seconds"] = ingest_age
        # The self-observability series: the ingest count and, given a
        # store, the writer's ``store.*`` counters.
        counters = {"fleet.records_ingested": float(self.records_ingested)}
        if self.store_writer is not None:
            counters.update(self.store_writer.counters.values())
        return render_prometheus(
            self.registry, self.engine, self.tailer, extra, counters
        )

    # ------------------------------------------------------------------
    # Batch-session helpers
    # ------------------------------------------------------------------

    def wait_idle(self, *, timeout: float = 30.0) -> bool:
        """Wait until ingestion has been quiet for :data:`IDLE_SECONDS`.

        "Quiet" = no new records ingested — the state a finished emitter
        leaves behind.  Returns False on timeout, or at once when the
        ingest thread has died (:meth:`stop` raises why).
        """
        deadline = self.clock() + timeout
        last_count = -1
        quiet_since: Optional[float] = None
        while self.clock() < deadline and self._ingest_error is None:
            count = self.records_ingested
            if count != last_count:
                last_count = count
                quiet_since = None
            elif quiet_since is None:
                quiet_since = self.clock()
            elif self.clock() - quiet_since >= IDLE_SECONDS:
                return True
            self.sleep(0.05)
        return False

    def summary(self) -> dict:
        """A human-readable state snapshot (the serve CLI's exit report)."""
        onsets = self.registry.onset_counts()
        store_summary = None
        if self.store is not None:
            store_summary = {
                "directory": str(self.store.directory),
                "n_records": self.store.n_records,
                "n_segments": self.store.n_segments,
                "records_replayed": self.records_replayed,
            }
        return {
            "store": store_summary,
            "records_ingested": self.records_ingested,
            "tracked_gpus": len(self.registry.snapshot()),
            "error_onsets": sum(onsets.values()),
            "onsets_by_xid": dict(sorted(onsets.items())),
            "open_runs": self.registry.open_runs(),
            "persistence_alarms": self.registry.persistence_alarms(),
            "alerts_fired": self.engine.total_fired(),
            "alerts_by_rule": {
                name: count
                for name, count in sorted(self.engine.fired_counts.items())
                if count
            },
        }
