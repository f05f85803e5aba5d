"""Segment files: columnar round trips, footers, structural validation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.parsing import XidBatch
from repro.store import SCHEMA_VERSION, SegmentCorruptError, StoreSchemaError
from repro.store.segment import (
    MAGIC,
    encode_segment,
    iter_segment_records,
    read_columns,
    read_footer,
    write_segment,
)

from tests.store.conftest import make_record


class TestRoundTrip:
    def test_records_survive_encode_decode_exactly(self, tmp_path, records):
        path = tmp_path / "seg-000001.seg"
        info = write_segment(path, XidBatch.from_records(records))
        assert info.n_records == 4
        assert list(iter_segment_records(path)) == records

    def test_rows_are_stable_sorted_by_time(self, tmp_path, records):
        path = tmp_path / "seg-000001.seg"
        shuffled = [records[3], records[0], records[1], records[2]]
        write_segment(path, XidBatch.from_records(shuffled))
        replayed = list(iter_segment_records(path))
        assert [r.time for r in replayed] == [0.0, 1.0, 1.0, 5.0]
        # The 1.0 tie keeps *input* order (sorted() is stable): the
        # gpub002 record entered before the MMU-fault record.
        assert [r.xid for r in replayed if r.time == 1.0] == [79, 31]

    def test_none_pid_round_trips(self, tmp_path, records):
        path = tmp_path / "seg-000001.seg"
        write_segment(path, XidBatch.from_records(records))
        replayed = list(iter_segment_records(path))
        assert replayed[1].pid is None
        assert replayed[0].pid == 1234

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            encode_segment(XidBatch.empty())


class TestFooter:
    def test_zone_map_describes_the_batch(self, tmp_path, records):
        path = tmp_path / "seg-000001.seg"
        info = write_segment(path, XidBatch.from_records(records))
        footer = read_footer(path)
        zone = footer["zone"]
        assert zone["time_min"] == 0.0 and zone["time_max"] == 5.0
        assert zone["xids"] == [31, 63, 79, 94]
        assert zone["nodes"] == ["gpua001", "gpub002"]
        assert "gpub002/0000:46:00" in zone["serials"]
        assert info.zone["xids"] == (31, 63, 79, 94)

    def test_dictionary_coding_dedupes_messages(self, tmp_path):
        # 500 rows, 1 distinct message: the msg column is codes, the
        # dictionary holds the string once.
        batch = [make_record(float(t)) for t in range(500)]
        path = tmp_path / "seg-000001.seg"
        write_segment(path, XidBatch.from_records(batch))
        footer = read_footer(path)
        assert footer["dicts"]["msg"] == ["Row remap"]
        columns = read_columns(path, footer)
        assert len(columns) == 500

    def test_footer_read_does_not_require_columns(self, tmp_path, records):
        # Corrupt a column byte; the footer (tail) must still read fine.
        path = tmp_path / "seg-000001.seg"
        write_segment(path, XidBatch.from_records(records))
        payload = bytearray(path.read_bytes())
        payload[len(MAGIC) + 4] ^= 0xFF  # inside the first column array
        path.write_bytes(bytes(payload))
        assert read_footer(path)["n_records"] == 4


class TestValidation:
    def test_truncated_file_is_corrupt(self, tmp_path, records):
        path = tmp_path / "seg-000001.seg"
        write_segment(path, XidBatch.from_records(records))
        path.write_bytes(path.read_bytes()[:-9])  # clip the trailing magic
        with pytest.raises(SegmentCorruptError):
            read_footer(path)

    def test_bad_leading_magic_is_corrupt(self, tmp_path, records):
        path = tmp_path / "seg-000001.seg"
        write_segment(path, XidBatch.from_records(records))
        payload = bytearray(path.read_bytes())
        payload[0] ^= 0xFF
        path.write_bytes(bytes(payload))
        with pytest.raises(SegmentCorruptError):
            read_footer(path)

    def test_non_segment_file_is_corrupt(self, tmp_path):
        path = tmp_path / "seg-000001.seg"
        path.write_bytes(b"this is not a segment at all, not even close")
        with pytest.raises(SegmentCorruptError):
            read_footer(path)

    def test_future_schema_version_rejected(self, tmp_path, records):
        path = tmp_path / "seg-000001.seg"
        write_segment(path, XidBatch.from_records(records))
        old = f'"schema":"{SCHEMA_VERSION}"'.encode()
        new = old.replace(b"/1", b"/9")  # same length: framing stays valid
        payload = path.read_bytes()
        assert payload.count(old) == 1
        path.write_bytes(payload.replace(old, new))
        with pytest.raises(StoreSchemaError):
            read_footer(path)


def _row_encoded(records):
    """Segment bytes as the row encoder wrote them: the oracle the batch
    encoder must match byte for byte."""
    import io
    import json

    import numpy as np

    from repro.store.query import gpu_serial
    from repro.store.segment import _LEN_STRUCT, COLUMN_NAMES

    rows = sorted(records, key=lambda r: r.time)

    def coded(values):
        index = {}
        return [index.setdefault(v, len(index)) for v in values], list(index)

    node_codes, node_dict = coded([r.node_id for r in rows])
    pci_codes, pci_dict = coded([r.pci_bus for r in rows])
    msg_codes, msg_dict = coded([r.message for r in rows])
    columns = {
        "time": np.array([r.time for r in rows], dtype=np.float64),
        "xid": np.array([r.xid for r in rows], dtype=np.int64),
        "node": np.array(node_codes, dtype=np.int64),
        "pci": np.array(pci_codes, dtype=np.int64),
        "msg": np.array(msg_codes, dtype=np.int64),
        "pid": np.array([-1 if r.pid is None else r.pid for r in rows], dtype=np.int64),
    }
    body = io.BytesIO()
    body.write(MAGIC)
    layout = {}
    for name in COLUMN_NAMES:
        offset = body.tell()
        np.save(body, columns[name], allow_pickle=False)
        layout[name] = {"offset": offset, "n_bytes": body.tell() - offset}
    footer = {
        "schema": SCHEMA_VERSION,
        "n_records": len(rows),
        "columns": layout,
        "dicts": {"node": node_dict, "pci": pci_dict, "msg": msg_dict},
        "zone": {
            "time_min": float(columns["time"][0]),
            "time_max": float(columns["time"][-1]),
            "xids": sorted({int(x) for x in columns["xid"]}),
            "nodes": sorted(set(node_dict)),
            "serials": sorted({
                gpu_serial(node_dict[n], pci_dict[p])
                for n, p in zip(node_codes, pci_codes)
            }),
        },
    }
    footer_bytes = json.dumps(footer, separators=(",", ":")).encode("utf-8")
    body.write(footer_bytes)
    body.write(_LEN_STRUCT.pack(len(footer_bytes)))
    body.write(MAGIC)
    return body.getvalue()


@given(st.lists(
    st.builds(
        make_record,
        st.sampled_from([0.0, 1.0, 1.0, 2.5, 9.0]),
        node=st.sampled_from(["gpua001", "gpub002", "gpuc003"]),
        pci=st.sampled_from(["0000:07:00", "0000:46:00"]),
        xid=st.sampled_from([31, 79, 119]),
        msg=st.sampled_from(["Row remap", "MMU fault", "GSP timeout"]),
        pid=st.sampled_from([None, 0, 8821, 2**63 - 1]),
    ),
    min_size=1, max_size=40,
))
@settings(max_examples=200, deadline=None)
def test_batch_encoder_matches_the_row_encoder_byte_for_byte(rows):
    want = _row_encoded(rows)
    assert encode_segment(XidBatch.from_records(rows)) == want
    # A batch whose dictionaries hold extra, out-of-order strings recodes
    # to the same bytes.
    extra = make_record(3.0, node="gpuz999", pci="0000:CB:00", msg="unused")
    padded = XidBatch.from_records([*rows[::-1], extra, *rows]).take(
        np.arange(len(rows) + 1, 2 * len(rows) + 1)
    )
    assert encode_segment(padded) == want
