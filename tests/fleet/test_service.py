"""FleetHealthService wiring: injectable clock, sink lifecycle, staleness,
and a dead ingest thread."""

import json
import time

import pytest

from repro.fleet import JsonLinesSink
from repro.fleet.registry import HealthRegistry
from repro.fleet.service import FleetHealthService, FleetServiceConfig
from repro.replay import VirtualClock

from tests.fleet.test_rules import _record


def _service(tmp_path, *, sinks=(), clock=None, sleep=None):
    logs = tmp_path / "logs"
    logs.mkdir(exist_ok=True)
    kwargs = {}
    if clock is not None:
        kwargs["clock"] = clock
    if sleep is not None:
        kwargs["sleep"] = sleep
    return FleetHealthService(
        FleetServiceConfig(logs_dir=logs, metrics_port=None),
        sinks=sinks,
        **kwargs,
    )


class TestSinkLifecycle:
    def test_stop_closes_file_backed_sinks(self, tmp_path):
        sink = JsonLinesSink(tmp_path / "alerts.jsonl")
        service = _service(tmp_path, sinks=(sink,))
        service.start()
        service.stop()
        assert sink._handle.closed

    def test_alerts_written_before_close_survive(self, tmp_path):
        path = tmp_path / "alerts.jsonl"
        sink = JsonLinesSink(path)
        service = _service(tmp_path, sinks=(sink,))
        service.start()
        service.engine.observe_onset(_record(0.0, xid=119))
        service.engine.observe_onset(_record(1.0, xid=119))
        service.engine.observe_onset(_record(2.0, xid=119))
        service.stop()
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert rows and rows[0]["rule"] == "xid119-gsp-repeat"

    def test_memory_sinks_pass_through_unharmed(self, tmp_path):
        from repro.fleet import MemorySink

        sink = MemorySink()  # no close(): stop() must not choke on it
        service = _service(tmp_path, sinks=(sink,))
        service.start()
        service.stop()


class TestClockInjection:
    def test_uptime_reads_the_injected_clock(self, tmp_path):
        clock = VirtualClock(start=50.0)
        service = _service(tmp_path, clock=clock.monotonic, sleep=clock.sleep)
        service.start()
        try:
            clock.advance(123.0)
            metrics = service.render_metrics()
            line = next(
                l for l in metrics.splitlines()
                if l.startswith("repro_fleet_uptime_seconds")
            )
            assert float(line.split()[-1]) == 123.0
        finally:
            service.stop()


class TestIngestStaleness:
    def test_age_none_until_first_record(self):
        clock = VirtualClock()
        registry = HealthRegistry(clock=clock.monotonic)
        assert registry.ingest_age_seconds() is None

    def test_age_tracks_injected_clock(self):
        clock = VirtualClock()
        registry = HealthRegistry(clock=clock.monotonic)
        registry.ingest(_record(0.0, xid=31))
        assert registry.ingest_age_seconds() == 0.0
        clock.advance(42.0)
        assert registry.ingest_age_seconds() == 42.0
        registry.ingest(_record(1.0, xid=31))
        assert registry.ingest_age_seconds() == 0.0

    def test_staleness_gauge_exposed(self, tmp_path):
        clock = VirtualClock()
        service = _service(tmp_path, clock=clock.monotonic, sleep=clock.sleep)
        service.start()
        try:
            service.registry.ingest(_record(0.0, xid=31))
            clock.advance(7.0)
            metrics = service.render_metrics()
            line = next(
                l for l in metrics.splitlines()
                if l.startswith("repro_fleet_ingest_age_seconds")
            )
            assert float(line.split()[-1]) == 7.0
        finally:
            service.stop()


class _FullDiskSink:
    """An alert sink whose every write fails."""

    def emit(self, alert) -> None:
        raise OSError(28, "No space left on device")


class TestIngestFailure:
    LINE = (
        "2022-03-14T02:11:09.113 gpub042 kernel: NVRM: Xid (PCI:0000:C7:00): "
        "79, pid=8821, GPU has fallen off the bus"
    )

    def test_stop_raises_what_killed_the_ingest_thread(self, tmp_path):
        service = _service(tmp_path, sinks=(_FullDiskSink(),))
        # The first XID 79 fires the drain alert, whose sink write fails.
        (tmp_path / "logs" / "gpub042.log").write_text(
            "\n".join([self.LINE] * 3) + "\n"
        )
        service.start()
        deadline = time.monotonic() + 10.0
        while not service.records_ingested and time.monotonic() < deadline:
            time.sleep(0.05)
        assert service.records_ingested
        started = time.monotonic()
        assert service.wait_idle(timeout=30.0) is False
        assert time.monotonic() - started < 10.0  # gave up, did not time out
        with pytest.raises(OSError, match="No space left on device"):
            service.stop()
        assert service.records_ingested == 1
