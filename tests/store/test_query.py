"""Query semantics: normalization, zone pruning, vectorized masks."""

import pytest

from repro.core.parsing import XidBatch
from repro.store import MATCH_ALL, Query, gpu_serial
from repro.store.segment import read_columns, write_segment


class TestNormalization:
    def test_default_query_is_unconstrained(self):
        assert MATCH_ALL.unconstrained
        assert Query().unconstrained

    def test_empty_sets_and_open_range_collapse_to_none(self):
        query = Query(time_range=(None, None), xids=[], nodes=set())
        assert query.unconstrained

    def test_iterables_freeze(self):
        query = Query(xids=[79, 79, 63])
        assert query.xids == frozenset({63, 79})

    def test_inverted_time_range_rejected(self):
        with pytest.raises(ValueError):
            Query(time_range=(10.0, 5.0))


class TestZonePruning:
    ZONE = {
        "time_min": 100.0,
        "time_max": 200.0,
        "xids": [63, 79],
        "nodes": ["gpua001"],
        "serials": ["gpua001/0000:07:00"],
    }

    def test_disjoint_time_window_prunes(self):
        assert not Query(time_range=(300.0, None)).matches_zone(self.ZONE)
        assert not Query(time_range=(None, 50.0)).matches_zone(self.ZONE)

    def test_overlapping_time_window_keeps(self):
        assert Query(time_range=(150.0, 400.0)).matches_zone(self.ZONE)
        assert Query(time_range=(200.0, 200.0)).matches_zone(self.ZONE)  # closed

    def test_value_sets_prune_and_keep(self):
        assert not Query(xids={31}).matches_zone(self.ZONE)
        assert Query(xids={31, 79}).matches_zone(self.ZONE)
        assert not Query(nodes={"gpub002"}).matches_zone(self.ZONE)
        assert not Query(serials={"gpua001/0000:46:00"}).matches_zone(self.ZONE)

    def test_row_predicate_agrees_with_zone_on_singletons(self, records):
        for record in records:
            zone = {
                "time_min": record.time,
                "time_max": record.time,
                "xids": [record.xid],
                "nodes": [record.node_id],
                "serials": [gpu_serial(record.node_id, record.pci_bus)],
            }
            query = Query(xids={record.xid}, nodes={record.node_id})
            assert query.matches_record(record)
            assert query.matches_zone(zone)


class TestMask:
    @pytest.fixture
    def columns(self, tmp_path, records):
        path = tmp_path / "seg-000001.seg"
        write_segment(path, XidBatch.from_records(records))
        return read_columns(path)

    def test_mask_matches_row_predicate(self, columns, records):
        ordered = sorted(records, key=lambda r: r.time)
        for query in (
            Query(time_range=(1.0, 5.0)),
            Query(xids={79, 94}),
            Query(nodes={"gpub002"}),
            Query(serials={"gpub002/0000:46:00"}),
            Query(time_range=(0.0, 1.0), xids={31}),
        ):
            mask = query.mask(columns).tolist()
            expected = [query.matches_record(r) for r in ordered]
            assert mask == expected, query

    def test_unknown_serial_matches_nothing(self, columns):
        query = Query(serials={"nosuch/0000:00:00"})
        assert not query.mask(columns).any()
