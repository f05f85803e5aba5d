"""ReplayCursor: one query per pass, and windows that group that pass."""

import pytest

from repro.core.parsing import XidBatch
from repro.store import EventStore, Query, ReplayCursor
from repro.store import segment as segment_module

from tests.store.conftest import make_record


def _spread(tmp_path, *, hours=30, per_hour=3):
    """A store spanning ``hours`` hours, several records per hour."""
    store = EventStore.create(tmp_path / "store")
    records = [
        make_record(
            h * 3600.0 + i,
            node=f"gpua{1 + (h + i) % 3:03d}",
            xid=(31, 63, 79)[i % 3],
        )
        for h in range(hours)
        for i in range(per_hour)
    ]
    store.append(XidBatch.from_records(records), segment_records=17)
    return store, records


class TestWindows:
    def test_concatenation_equals_flat_query(self, tmp_path):
        store, records = _spread(tmp_path)
        walked = list(ReplayCursor(store, window_seconds=4 * 3600.0))
        assert walked == list(store.query())
        assert walked == records

    def test_windows_are_half_open_and_cover_exactly_once(self, tmp_path):
        store, records = _spread(tmp_path)
        cursor = ReplayCursor(store, window_seconds=7 * 3600.0)
        seen = []
        for lo, hi, chunk in cursor.windows():
            final = hi > cursor.time_max
            for record in chunk:
                assert lo <= record.time
                if final:
                    assert record.time <= cursor.time_max
                else:
                    assert record.time < hi
            seen.extend(chunk)
        assert seen == records

    def test_pushdown_query_respected_per_window(self, tmp_path):
        store, records = _spread(tmp_path)
        query = Query(xids={79})
        walked = list(ReplayCursor(store, query=query, window_seconds=3600.0))
        assert walked == [r for r in records if r.xid == 79]
        assert walked == list(store.query(query))

    def test_time_range_bounds_the_walk(self, tmp_path):
        store, records = _spread(tmp_path)
        lo, hi = 5 * 3600.0, 20 * 3600.0
        query = Query(time_range=(lo, hi))
        walked = list(ReplayCursor(store, query=query, window_seconds=3600.0))
        assert walked == [r for r in records if lo <= r.time <= hi]

    def test_seek_skips_earlier_history(self, tmp_path):
        """A pass that starts mid-history is a query with a start time."""
        store, records = _spread(tmp_path)
        since = 10 * 3600.0
        cursor = ReplayCursor(
            store, query=Query(time_range=(since, None)), window_seconds=3600.0
        )
        assert list(cursor) == [r for r in records if r.time >= since]
        assert next(cursor.windows())[0] == since

    def test_empty_store_yields_nothing(self, tmp_path):
        store = EventStore.create(tmp_path / "store")
        cursor = ReplayCursor(store)
        assert list(cursor) == []
        assert list(cursor.windows()) == []

    def test_position_advances_monotonically(self, tmp_path):
        """Windows tile the history from its start, empty ones included."""
        store, _ = _spread(tmp_path, hours=5)
        cursor = ReplayCursor(store, query=Query(xids={79}), window_seconds=3600.0)
        bounds = [(lo, hi) for lo, hi, _ in cursor.windows()]
        assert bounds == [(h * 3600.0, (h + 1) * 3600.0) for h in range(5)]

    def test_a_pass_decodes_each_segment_once(self, tmp_path, monkeypatch):
        store, records = _spread(tmp_path)
        decoded = []
        read_segment = segment_module.read_segment

        def counting(path, query):
            decoded.append(path.name)
            return read_segment(path, query)

        monkeypatch.setattr(segment_module, "read_segment", counting)
        cursor = ReplayCursor(store, window_seconds=3600.0)
        assert [r for _, _, chunk in cursor.windows() for r in chunk] == records
        assert sorted(decoded) == sorted(s.name for s in store.manifest.segments)

    def test_rejects_bad_window(self, tmp_path):
        store = EventStore.create(tmp_path / "store")
        with pytest.raises(ValueError):
            ReplayCursor(store, window_seconds=0.0)
