"""FleetHealthService wiring: one ingest thread, injectable clock, sink
lifecycle, staleness, warm restarts, store durability and a dead ingest
thread."""

import json
import sys
import threading
import time

import pytest

from repro.fleet import JsonLinesSink
from repro.fleet.registry import HealthRegistry
from repro.fleet.service import FleetHealthService, FleetServiceConfig
from repro.replay import VirtualClock
from repro.store import EventStore
from repro.store import writer as writer_module

from tests.fleet.test_rules import _record


def _service(tmp_path, *, sinks=(), clock=None, sleep=None, store_dir=None):
    logs = tmp_path / "logs"
    logs.mkdir(exist_ok=True)
    kwargs = {}
    if clock is not None:
        kwargs["clock"] = clock
    if sleep is not None:
        kwargs["sleep"] = sleep
    return FleetHealthService(
        FleetServiceConfig(logs_dir=logs, metrics_port=None, store_dir=store_dir),
        sinks=sinks,
        **kwargs,
    )


def _xid_lines(node, times):
    return "".join(
        f"2022-03-14T02:11:{t:06.3f} {node} kernel: NVRM: Xid "
        f"(PCI:0000:07:00): 31, pid=1234, MMU Fault\n"
        for t in times
    )


def _wait_for(condition, timeout=10.0):
    deadline = time.monotonic() + timeout
    while not condition() and time.monotonic() < deadline:
        time.sleep(0.02)
    return condition()


class TestOneThread:
    def test_the_ingest_thread_is_the_only_one_started(self, tmp_path):
        before = set(threading.enumerate())
        service = _service(tmp_path)
        service.start()
        try:
            started = [t.name for t in threading.enumerate() if t not in before]
            assert started == ["fleet-ingest"]
        finally:
            service.stop()

    def test_stop_reads_what_was_written_before_it(self, tmp_path):
        service = _service(tmp_path)
        service.start()
        (tmp_path / "logs" / "gpua001.log").write_text(
            _xid_lines("gpua001", [1.0, 2.0, 3.0])
        )
        service.stop()
        assert service.records_ingested == 3


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


class TestConcurrentScrapes:
    def test_scrapes_while_the_ingest_thread_finds_files(self, tmp_path):
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        service = _service(tmp_path)
        errors, done = [], threading.Event()

        def scrape():
            while not done.is_set():
                try:
                    service.render_metrics()
                except Exception as error:  # reported by the assertion below
                    errors.append(error)
                    return

        scrapers = [threading.Thread(target=scrape) for _ in range(3)]
        try:
            service.start()
            for thread in scrapers:
                thread.start()
            for index in range(200):
                node = f"gpua{index:03d}"
                (tmp_path / "logs" / f"{node}.log").write_text(_xid_lines(node, [1.0]))
            assert _wait_for(lambda: service.records_ingested == 200, timeout=30.0)
        finally:
            done.set()
            for thread in scrapers:
                thread.join(10.0)
            service.stop()
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in scrapers)
        assert not errors
        assert service.tailer.stats().files == 200


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

    def test_the_store_keeps_the_rows_before_the_failing_one(self, tmp_path):
        store_dir = tmp_path / "events"
        service = _service(tmp_path, sinks=(_FullDiskSink(),), store_dir=store_dir)
        # Two MMU faults fire nothing; the XID 79 after them kills the thread.
        (tmp_path / "logs" / "gpub042.log").write_text(
            _xid_lines("gpub042", [1.0, 2.0]).replace("0000:07:00", "0000:C7:00")
            + self.LINE + "\n"
        )
        service.start()
        assert _wait_for(lambda: service._ingest_error is not None)
        with pytest.raises(OSError, match="No space left on device"):
            service.stop()
        assert service.records_ingested == 3
        assert [r.xid for r in EventStore.open(store_dir).query()] == [31, 31]


class TestWarmRestart:
    def test_a_log_file_created_after_start_is_read_from_its_first_line(
        self, tmp_path
    ):
        store_dir = tmp_path / "events"
        logs = tmp_path / "logs"
        logs.mkdir()
        (logs / "gpua001.log").write_text(_xid_lines("gpua001", [1.0]))
        first = _service(tmp_path, store_dir=store_dir)
        first.start()
        assert first.wait_idle(timeout=10.0)
        first.stop()
        assert EventStore.open(store_dir).n_records == 1

        service = _service(tmp_path, store_dir=store_dir)
        service.start()
        try:
            assert service.records_replayed == 1
            # Once the first pass has found gpua001.log, any file is new.
            assert _wait_for(lambda: service.tailer.stats().files == 1)
            (logs / "gpua002.log").write_text(
                _xid_lines("gpua002", [5.0, 6.0, 7.0])
            )
            assert _wait_for(lambda: service.records_ingested == 3)
        finally:
            service.stop()
        assert service.records_ingested == 3


class TestStoreDurability:
    def test_records_become_durable_during_a_silence(self, tmp_path, monkeypatch):
        monkeypatch.setattr(writer_module, "FLUSH_SECONDS", 0.3)
        store_dir = tmp_path / "events"
        service = _service(tmp_path, store_dir=store_dir)
        service.start()
        try:
            (tmp_path / "logs" / "gpua001.log").write_text(
                _xid_lines("gpua001", [1.0, 2.0, 3.0])
            )
            assert _wait_for(lambda: service.records_ingested == 3)
            # No record follows, yet the buffer is committed to the store.
            assert _wait_for(lambda: service.store.n_records == 3)
        finally:
            service.stop()
