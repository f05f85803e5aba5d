"""EventStore: append, pushdown queries, compaction, crash recovery."""

import json

import pytest

from repro.core.parsing import XidBatch
from repro.store import (
    MANIFEST_NAME,
    EventStore,
    Query,
    StoreError,
    StoreSchemaError,
)

from tests.store.conftest import make_record


def _burst(start, n, **kwargs):
    return [make_record(start + i, **kwargs) for i in range(n)]


def _batch(start, n, **kwargs):
    return XidBatch.from_records(_burst(start, n, **kwargs))


class TestLifecycle:
    def test_create_open_exists(self, tmp_path):
        directory = tmp_path / "store"
        assert not EventStore.exists(directory)
        store = EventStore.create(directory, meta={"scale": 0.01})
        assert EventStore.exists(directory)
        reopened = EventStore.open(directory)
        assert reopened.meta == {"scale": 0.01}
        assert reopened.n_records == 0

    def test_create_refuses_existing_store(self, tmp_path):
        EventStore.create(tmp_path / "store")
        with pytest.raises(StoreError):
            EventStore.create(tmp_path / "store")

    def test_open_refuses_non_store_directory(self, tmp_path):
        with pytest.raises(StoreError):
            EventStore.open(tmp_path)

    def test_manifest_schema_mismatch_rejected(self, tmp_path):
        EventStore.create(tmp_path / "store")
        manifest = tmp_path / "store" / MANIFEST_NAME
        data = json.loads(manifest.read_text())
        data["schema"] = "repro.store/999"
        manifest.write_text(json.dumps(data))
        with pytest.raises(StoreSchemaError):
            EventStore.open(tmp_path / "store")


class TestAppendAndQuery:
    def test_append_splits_into_segments(self, tmp_path):
        store = EventStore.create(tmp_path / "store")
        written = store.append(_batch(0.0, 25), segment_records=10)
        assert [info.n_records for info in written] == [10, 10, 5]
        assert store.n_segments == 3 and store.n_records == 25

    def test_append_commits_rows_one_segment_at_a_time(self, tmp_path):
        store = EventStore.create(tmp_path / "store")

        def failing_stream():
            yield _batch(0.0, 7)
            yield _batch(7.0, 16)
            raise RuntimeError("source failed")

        with pytest.raises(RuntimeError):
            store.append(failing_stream(), segment_records=10)
        assert store.n_segments == 2 and store.n_records == 20
        assert [r.time for r in store.query()] == [float(t) for t in range(20)]

    def test_query_merges_interleaved_segments_in_time_order(self, tmp_path):
        store = EventStore.create(tmp_path / "store")
        store.append_segment(_batch(0.0, 5, node="gpua001"))
        store.append_segment(_batch(2.5, 5, node="gpub002", pci="0000:46:00"))
        times = [r.time for r in store.query()]
        assert times == sorted(times)
        assert len(times) == 10

    def test_equal_timestamps_resolve_by_segment_order(self, tmp_path):
        store = EventStore.create(tmp_path / "store")
        store.append_segment(XidBatch.from_records([make_record(1.0, node="first")]))
        store.append_segment(XidBatch.from_records([make_record(1.0, node="second")]))
        assert [r.node_id for r in store.query()] == ["first", "second"]

    def test_plan_prunes_on_zone_maps(self, tmp_path):
        store = EventStore.create(tmp_path / "store")
        store.append_segment(_batch(0.0, 5, xid=63))
        store.append_segment(_batch(100.0, 5, xid=79))
        store.append_segment(_batch(200.0, 5, xid=63))
        candidates, pruned = store.plan(Query(xids={79}))
        assert pruned == 2 and len(candidates) == 1
        candidates, pruned = store.plan(Query(time_range=(150.0, None)))
        assert pruned == 2
        assert [r.xid for r in store.query(Query(xids={79}))] == [79] * 5

    def test_count_agrees_with_materialized_query(self, tmp_path):
        store = EventStore.create(tmp_path / "store")
        store.append(_batch(0.0, 30), segment_records=7)
        query = Query(time_range=(5.0, 20.0))
        assert store.count(query) == len(list(store.query(query))) == 16

    def test_content_hash_tracks_physical_state(self, tmp_path):
        store = EventStore.create(tmp_path / "store")
        store.append_segment(_batch(0.0, 5))
        first = store.content_hash()
        store.append_segment(_batch(10.0, 5))
        assert store.content_hash() != first
        assert EventStore.open(tmp_path / "store").content_hash() == store.content_hash()

    def test_stats_counts_by_xid(self, tmp_path):
        store = EventStore.create(tmp_path / "store")
        store.append_segment(XidBatch.concat([_batch(0.0, 4, xid=63), _batch(50.0, 2, xid=79)]))
        stats = store.stats()
        assert stats["counts_by_xid"] == {63: 4, 79: 2}
        assert stats["n_records"] == 6


class TestCompaction:
    def test_small_adjacent_segments_merge(self, tmp_path):
        store = EventStore.create(tmp_path / "store")
        store.append(_batch(0.0, 40), segment_records=10)
        assert store.n_segments == 4
        before = list(store.query())
        assert store.compact(threshold=100) == 4
        assert store.n_segments == 1
        assert list(store.query()) == before  # replay order invariant
        assert EventStore.open(tmp_path / "store").n_records == 40

    def test_large_segments_left_alone(self, tmp_path):
        store = EventStore.create(tmp_path / "store")
        store.append(_batch(0.0, 40), segment_records=10)
        assert store.compact(threshold=5) == 0
        assert store.n_segments == 4

    def test_big_segment_splits_candidate_runs(self, tmp_path):
        store = EventStore.create(tmp_path / "store")
        store.append_segment(_batch(0.0, 2))
        store.append_segment(_batch(10.0, 50))  # above threshold: a wall
        store.append_segment(_batch(100.0, 2))
        before = list(store.query())
        # Neither small segment has a small *adjacent* partner.
        assert store.compact(threshold=10) == 0
        assert list(store.query()) == before


class TestRecovery:
    def test_leftover_tmp_files_are_deleted(self, tmp_path):
        store = EventStore.create(tmp_path / "store")
        store.append_segment(_batch(0.0, 3))
        (tmp_path / "store" / "seg-000099.seg.tmp").write_bytes(b"partial")
        (tmp_path / "store" / (MANIFEST_NAME + ".tmp")).write_text("{}")
        reopened = EventStore.open(tmp_path / "store")
        assert not list((tmp_path / "store").glob("*.tmp"))
        assert reopened.n_records == 3

    def test_complete_orphan_segment_is_adopted(self, tmp_path):
        from repro.store.segment import write_segment

        store = EventStore.create(tmp_path / "store")
        store.append_segment(_batch(0.0, 3))
        # Simulate a crash between rename and manifest commit: a whole
        # segment file exists that no manifest entry references.
        orphan = tmp_path / "store" / "seg-000002.seg"
        write_segment(orphan, _batch(100.0, 2))
        reopened = EventStore.open(tmp_path / "store")
        assert reopened.n_segments == 2
        assert reopened.n_records == 5
        # next_seq advanced past the adopted segment: new appends don't collide.
        reopened.append_segment(_batch(200.0, 1))
        assert reopened.n_records == 6

    def test_corrupt_orphan_is_quarantined_not_read(self, tmp_path):
        store = EventStore.create(tmp_path / "store")
        store.append_segment(_batch(0.0, 3))
        (tmp_path / "store" / "seg-000042.seg").write_bytes(b"garbage bytes")
        reopened = EventStore.open(tmp_path / "store")
        assert reopened.n_records == 3
        assert (tmp_path / "store" / "seg-000042.seg.corrupt").exists()
        assert not (tmp_path / "store" / "seg-000042.seg").exists()

    def test_interrupted_compaction_garbage_is_removed(self, tmp_path):
        store = EventStore.create(tmp_path / "store")
        store.append(_batch(0.0, 20), segment_records=10)
        # Simulate a crash after the compaction commit but before cleanup:
        # the manifest's garbage list still names the replaced files.
        victim = store.manifest.segments[0].name
        store.manifest.garbage = [victim]
        store.manifest.segments = store.manifest.segments[1:]
        store.manifest.commit(store.directory)
        assert (tmp_path / "store" / victim).exists()
        reopened = EventStore.open(tmp_path / "store")
        assert not (tmp_path / "store" / victim).exists()
        assert reopened.manifest.garbage == []
        assert reopened.n_records == 10  # only the surviving segment

    def test_recovery_is_idempotent(self, tmp_path):
        store = EventStore.create(tmp_path / "store")
        store.append(_batch(0.0, 20), segment_records=5)
        before = list(store.query())
        for _ in range(3):
            store = EventStore.open(tmp_path / "store")
        assert list(store.query()) == before
