"""Stage II: Algorithm 1 — coalescing and persistence."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.coalesce import CoalesceConfig, CoalescedError, coalesce_errors
from repro.core.parsing import RawXidRecord, XidBatch


def _record(t, msg="same", node="n1", pci="0000:07:00", xid=95):
    return RawXidRecord(time=t, node_id=node, pci_bus=pci, xid=xid, message=msg)


class TestAlgorithm1:
    def test_burst_merges_into_one_error(self):
        records = [_record(t) for t in (0.0, 3.0, 6.0, 10.0)]
        errors = coalesce_errors(XidBatch.from_records(records))
        assert len(errors) == 1
        error = errors[0]
        assert error.time == 0.0
        assert error.persistence == pytest.approx(10.0)
        assert error.n_raw == 4

    def test_gap_beyond_window_splits(self):
        records = [_record(t) for t in (0.0, 3.0, 10.0, 12.0)]
        errors = coalesce_errors(XidBatch.from_records(records))
        assert len(errors) == 2
        assert errors[0].persistence == pytest.approx(3.0)
        assert errors[1].time == 10.0

    def test_boundary_gap_exactly_window_merges(self):
        # Algorithm 1 uses <= dt.
        records = [_record(0.0), _record(5.0)]
        assert len(coalesce_errors(XidBatch.from_records(records))) == 1

    def test_different_messages_never_merge(self):
        records = [_record(0.0, msg="a"), _record(1.0, msg="b")]
        assert len(coalesce_errors(XidBatch.from_records(records))) == 2

    def test_different_gpus_never_merge(self):
        records = [_record(0.0), _record(1.0, pci="0000:46:00")]
        assert len(coalesce_errors(XidBatch.from_records(records))) == 2

    def test_different_nodes_never_merge(self):
        records = [_record(0.0), _record(1.0, node="n2")]
        assert len(coalesce_errors(XidBatch.from_records(records))) == 2

    def test_different_xids_never_merge(self):
        records = [_record(0.0, xid=119), _record(1.0, xid=122)]
        assert len(coalesce_errors(XidBatch.from_records(records))) == 2

    def test_input_order_irrelevant(self):
        records = [_record(t) for t in (6.0, 0.0, 10.0, 3.0)]
        errors = coalesce_errors(XidBatch.from_records(records))
        assert len(errors) == 1 and errors[0].persistence == pytest.approx(10.0)

    def test_single_record_zero_persistence(self):
        errors = coalesce_errors(XidBatch.from_records([_record(42.0)]))
        assert errors[0].persistence == 0.0 and errors[0].n_raw == 1

    def test_output_sorted_by_time(self):
        records = [
            _record(100.0, node="n2"),
            _record(0.0),
            _record(50.0, node="n3"),
        ]
        errors = coalesce_errors(XidBatch.from_records(records))
        assert [e.time for e in errors] == [0.0, 50.0, 100.0]


class TestOneDayCutoff:
    def test_very_long_burst_is_split_at_cutoff(self):
        # A 2-day continuous burst (the paper's 17-day saga, scaled): splits
        # into runs of at most one day each.
        records = [_record(float(t)) for t in range(0, 2 * 86_400 + 8_000, 4)]
        errors = coalesce_errors(XidBatch.from_records(records))
        assert len(errors) >= 2
        assert all(e.persistence <= 86_400.0 for e in errors)
        total = sum(e.n_raw for e in errors)
        assert total == len(records)

    def test_custom_cutoff(self):
        records = [_record(float(t)) for t in range(0, 100, 4)]
        errors = coalesce_errors(XidBatch.from_records(records), CoalesceConfig(max_persistence=30.0))
        assert all(e.persistence <= 30.0 for e in errors)
        assert len(errors) == 4  # 96s span split into <=30s runs


class TestDeltaTAblation:
    """Section 3.2: counts fall as dt grows, and far larger windows start
    merging distinct errors (test_pipeline.py checks 5 s against 20 s)."""

    @staticmethod
    def _count(records, dt):
        return len(coalesce_errors(XidBatch.from_records(records), CoalesceConfig(window_seconds=dt)))

    def test_10s_between(self, study):
        counts = {dt: self._count(study.records, dt) for dt in (5.0, 10.0, 20.0)}
        assert counts[5.0] >= counts[10.0] >= counts[20.0]

    def test_huge_window_collapses_bursty_codes(self, study):
        assert self._count(study.records, 600.0) < self._count(study.records, 5.0) * 0.8


class TestConfig:
    def test_window_sensitivity(self):
        records = [_record(t) for t in (0.0, 8.0, 16.0)]
        narrow = coalesce_errors(XidBatch.from_records(records), CoalesceConfig(window_seconds=5.0))
        wide = coalesce_errors(XidBatch.from_records(records), CoalesceConfig(window_seconds=10.0))
        assert len(narrow) == 3 and len(wide) == 1

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            CoalesceConfig(window_seconds=0.0)
        with pytest.raises(ValueError):
            CoalesceConfig(max_persistence=-1.0)



def _reference_coalesce(records, config):
    """Algorithm 1 as a dict of per-group time lists: the row engine the
    columnar one replaced, kept as the oracle."""
    groups = {}
    for record in records:
        key = (record.node_id, record.pci_bus, record.xid, record.message)
        groups.setdefault(key, []).append(record.time)
    out = []
    for (node_id, pci_bus, xid, message), times in groups.items():
        arr = np.sort(np.asarray(times))
        gaps = np.diff(arr)
        break_points = np.nonzero(gaps > config.window_seconds)[0]
        starts = np.concatenate(([0], break_points + 1))
        ends = np.concatenate((break_points, [arr.size - 1]))
        runs = []
        for start, end in zip(starts, ends):
            if arr[end] - arr[start] <= config.max_persistence:
                runs.append((int(start), int(end)))
                continue
            run_start = int(start)
            for i in range(int(start) + 1, int(end) + 1):
                if arr[i] - arr[run_start] > config.max_persistence:
                    runs.append((run_start, i - 1))
                    run_start = i
            runs.append((run_start, int(end)))
        for start, end in runs:
            out.append(CoalescedError(
                time=float(arr[start]), node_id=node_id, pci_bus=pci_bus, xid=xid,
                persistence=float(arr[end]) - float(arr[start]),
                n_raw=end - start + 1, message=message,
            ))
    out.sort(key=lambda e: (e.time, e.node_id, e.pci_bus, e.xid))
    return out


_rows = st.lists(
    st.builds(
        RawXidRecord,
        time=st.sampled_from([0.0, 0.5, 1.0, 3.0, 4.5, 9.0, 30.0, 1e5, 2e5]),
        node_id=st.sampled_from([f"gpua00{n}" for n in range(5)]),
        pci_bus=st.sampled_from(["0000:07:00", "0000:46:00"]),
        xid=st.sampled_from([31, 35, 79, 31 + 2**62 - 2, 2**63 - 1]),
        message=st.sampled_from(["a", "b"]),  # message-only ties
    ),
    max_size=80,
)


@given(
    rows=_rows,
    window=st.sampled_from([0.5, 5.0, 100.0]),
    cutoff=st.sampled_from([1.0, 4.0, 86_400.0]),  # small ones force re-splits
)
@settings(max_examples=300, deadline=None)
def test_columnar_engine_equals_the_row_engine(rows, window, cutoff):
    config = CoalesceConfig(window_seconds=window, max_persistence=cutoff)
    want = _reference_coalesce(rows, config)
    assert coalesce_errors(XidBatch.from_records(rows), config) == want


def test_groups_stay_apart_when_xid_codes_lie_far_apart():
    # Five GPUs with XIDs 31, 35 and 31 + 2**62 - 2: a packed
    # (node, bus, XID, message) key of 5 x 2**62 values would overflow int64.
    rows = [
        RawXidRecord(time=i / 10, node_id=f"gpua00{node}", pci_bus="0000:07:00",
                     xid=xid, message="m")
        for i, (node, xid) in enumerate(
            (node, xid) for xid in (31, 35, 31 + 2**62 - 2) for node in range(5)
        )
    ]
    config = CoalesceConfig()
    want = _reference_coalesce(rows, config)
    assert len(want) == 15
    assert coalesce_errors(XidBatch.from_records(rows), config) == want
