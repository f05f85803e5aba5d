"""CounterSet, the store writer's flush series, and /metrics exposition."""

from __future__ import annotations

import threading

from repro.core.parsing import RawXidRecord, XidBatch
from repro.fleet.exposition import render_prometheus
from repro.fleet.registry import HealthRegistry
from repro.fleet.rules import RuleEngine
from repro.fleet.tailer import DirectoryTailer
from repro.obs import CounterSet
from repro.store import EventStore, StoreWriter
from repro.store import writer as writer_module


def _record(t, node="gpua001", pci="0000:07:00", xid=95, msg="m"):
    return RawXidRecord(
        time=float(t), node_id=node, pci_bus=pci, xid=xid, message=msg
    )


class TestCounterSet:
    def test_inc_and_values(self):
        counters = CounterSet()
        counters.inc("a")
        counters.inc("a", 2.5)
        counters.inc("b", 4)
        assert counters.values() == {"a": 3.5, "b": 4.0}

    def test_values_returns_a_snapshot_copy(self):
        counters = CounterSet()
        counters.inc("a")
        snap = counters.values()
        counters.inc("a")
        assert snap == {"a": 1.0}

    def test_thread_safety(self):
        counters = CounterSet()

        def bump():
            for _ in range(1000):
                counters.inc("n")

        threads = [threading.Thread(target=bump) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert counters.values() == {"n": 8000}


class TestStoreWriterCounters:
    def test_flush_feeds_the_counter_set(self, tmp_path, monkeypatch):
        monkeypatch.setattr(writer_module, "SEGMENT_RECORDS", 2)
        store = EventStore.open_or_create(tmp_path / "events")
        writer = StoreWriter(store)
        for i in range(5):
            writer.write(XidBatch.from_records([_record(float(i))]))
        writer.close()
        values = writer.counters.values()
        # 5 records at 2 per segment: two full flushes + close.
        assert values["store.flushes"] == 3
        assert values["store.records_written"] == 5
        assert values["store.flush_seconds"] >= 0

    def test_writer_works_without_counters(self, tmp_path):
        store = EventStore.open_or_create(tmp_path / "events")
        writer = StoreWriter(store)
        writer.write(XidBatch.from_records([_record(1.0)]))
        writer.close()
        assert writer.counters.values()["store.flushes"] == 1
        assert store.n_records == 1


def _render(registry, counters):
    return render_prometheus(
        registry, RuleEngine([]), DirectoryTailer("unpolled"), {}, counters
    )


class TestExpositionSeries:
    def test_ingest_counter_prefers_the_counter_set(self):
        registry = HealthRegistry()
        registry.ingest(_record(0.0))
        counters = {"fleet.records_ingested": 42.0}
        text = _render(registry, counters)
        assert "repro_fleet_records_ingested_total 42" in text

    def test_store_flush_series_rendered_when_present(self):
        registry = HealthRegistry()
        counters = {
            "fleet.records_ingested": 0.0,
            "store.flushes": 3.0,
            "store.flush_seconds": 0.25,
            "store.records_written": 120.0,
        }
        text = _render(registry, counters)
        assert "# TYPE repro_fleet_store_flushes_total counter" in text
        assert "repro_fleet_store_flushes_total 3" in text
        assert "repro_fleet_store_flush_seconds_total 0.25" in text
        assert "repro_fleet_store_records_written_total 120" in text

    def test_store_series_absent_without_counters(self):
        registry = HealthRegistry()
        text = _render(registry, {"fleet.records_ingested": 0.0})
        assert "repro_fleet_store_flushes_total" not in text
