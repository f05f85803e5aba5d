"""Stage I: XID extraction from raw syslog."""

import struct
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import parsing
from repro.core.parsing import XidBatch, parse_batch, parse_line

GOOD = (
    "2022-03-14T02:11:09.113 gpub042 kernel: "
    "NVRM: Xid (PCI:0000:C7:00): 119, pid=8821, Timeout after 6s of waiting "
    "for RPC response from GSP! Expected function 76 (GSP_RM_CONTROL)"
)


def parse_syslog(lines):
    """The row reference parse_batch must equal: parse_line on each line."""
    return [record for record in map(parse_line, lines) if record is not None]


class TestParseLine:
    def test_extracts_all_fields(self):
        record = parse_line(GOOD)
        assert record is not None
        assert record.node_id == "gpub042"
        assert record.pci_bus == "0000:C7:00"
        assert record.xid == 119
        assert record.pid == 8821
        assert record.message.startswith("Timeout after 6s")
        assert record.time > 0

    def test_unknown_pid_parses_as_none(self):
        line = GOOD.replace("pid=8821", "pid='<unknown>'")
        record = parse_line(line)
        assert record is not None and record.pid is None

    def test_gpu_key(self):
        assert parse_line(GOOD).gpu_key == ("gpub042", "0000:C7:00")

    @pytest.mark.parametrize(
        "line",
        [
            "2022-01-01T00:00:01.000 gpua001 systemd[1]: Started Session 4",
            "2022-01-01T00:00:01.000 gpua001 gpumond[12]: GPU 3 utilization ok",
            "random text with no structure",
            "",
            # Near-miss: right marker, wrong structure.
            "2022-01-01T00:00:01.000 gpua001 kernel: NVRM: Xid malformed",
        ],
    )
    def test_non_xid_lines_rejected(self, line):
        assert parse_line(line) is None

    def test_whole_second_timestamps_accepted(self):
        line = GOOD.replace("02:11:09.113", "02:11:09")
        record = parse_line(line)
        assert record is not None

    def test_case_sensitive_marker(self):
        assert parse_line(GOOD.replace("NVRM: Xid", "nvrm: xid")) is None


class TestParseSyslog:
    """Stage I over syslog text, as :func:`parse_batch` runs it."""

    def test_filters_and_orders_preserved(self):
        lines = ["noise", GOOD, "more noise", GOOD.replace("119", "31")]
        records = parse_batch(lines)
        assert [r.xid for r in records] == [119, 31]

    def test_empty_input(self):
        assert list(parse_batch([])) == []

    def test_round_trip_with_renderer(self, dataset):
        # Every rendered XID line in the shared dataset must parse; noise
        # must not.
        n_records = len(parse_batch(dataset.log_lines()))
        n_xid_lines = sum(
            1 for line in dataset.log_lines(include_noise=False)
        )
        assert n_records == n_xid_lines


class TestInputDefects:
    """Each malformed field has one outcome, the same in both parsers."""

    @pytest.mark.parametrize("pid", ["²", "99999999999999999999"])
    def test_pid_that_is_not_a_decimal_int64_is_none(self, pid):
        line = GOOD.replace("pid=8821", f"pid={pid}")
        record = parse_line(line)
        assert record is not None and record.pid is None
        assert list(parse_batch([line])) == [record]

    def test_largest_int64_pid_is_kept(self):
        line = GOOD.replace("pid=8821", f"pid={2**63 - 1}")
        assert parse_line(line).pid == 2**63 - 1
        assert next(iter(parse_batch([line]))).pid == 2**63 - 1

    @pytest.mark.parametrize("date", ["2022-02-30", "2022-13-45", "0000-01-01"])
    def test_line_with_no_such_calendar_date_is_not_a_record(self, date):
        line = GOOD.replace("2022-03-14", date)
        assert parse_line(line) is None
        assert len(parse_batch([line])) == 0

    @pytest.mark.parametrize("clock", ["25:61:61", "24:00:00", "23:60:00", "23:59:61"])
    def test_line_with_time_of_day_out_of_range_is_not_a_record(self, clock):
        line = GOOD.replace("02:11:09", clock)
        assert parse_line(line) is None
        assert len(parse_batch([line])) == 0

    def test_leap_second_is_a_record(self):
        line = GOOD.replace("02:11:09", "23:59:60")
        record = parse_line(line)
        assert record is not None
        assert list(parse_batch([line])) == [record]

    def test_xid_beyond_int64_is_not_a_record(self):
        line = GOOD.replace("): 119,", "): 99999999999999999999,")
        assert parse_line(line) is None
        assert len(parse_batch([line])) == 0


class TestParseBatch:
    def test_rows_equal_parse_syslog(self):
        lines = ["noise", GOOD, "more noise", GOOD.replace("119", "31")]
        batch = parse_batch(lines)
        assert isinstance(batch, XidBatch)
        assert list(batch) == parse_syslog(lines)

    def test_regex_runs_once_per_distinct_remainder(self, monkeypatch):
        calls = []
        real = parsing._TAIL_PATTERN

        class Counting:
            def match(self, text):
                calls.append(text)
                return real.match(text)

        monkeypatch.setattr(parsing, "_TAIL_PATTERN", Counting())
        lines = [GOOD.replace("09.113", f"{s:02d}.000") for s in range(40)]
        assert len(parse_batch(lines)) == 40
        assert len(calls) == 1

    def test_equality_ignores_dictionary_codes(self):
        rows = parse_syslog([GOOD, GOOD.replace("gpub042", "gpua001")])
        forward = XidBatch.from_records(rows)
        backward = XidBatch.from_records(rows[::-1]).take(np.array([1, 0]))
        assert forward.node_dict != backward.node_dict
        assert (forward == backward) is True
        assert (forward == forward.take(np.array([1, 0]))) is False
        assert (forward == XidBatch.empty()) is False


_FRACTIONS = ["", ".1", ".12", ".123", ".1234", ".12345", ".123456", ".000"]
_CLOCKS = ["02:11:09", "00:00:00", "23:59:60", "25:61:61", "٠٢:١١:٠٩"]
_DATES = ["2022-03-14", "2021-12-31", "2022-02-30", "2022-13-45", "٢٠٢٢-٠٣-١٤"]
_SEPARATORS = [" ", "  ", "\t", " \t", "\t "]
_MARKERS = ["NVRM: Xid", "NVRM:  Xid", "NVRM:\tXid", "nvrm: xid"]
_XIDS = ["79", "119", "٧٩", "99999999999999999999"]
_PIDS = ["8821", "0", "'<unknown>'", "²", "٣", "99999999999999999999",
         str(2**63 - 1), str(2**63)]
_MESSAGES = ["GPU has fallen off the bus", "MMU Fault: ENGINE GRAPHICS", "",
             "Status 0x1f"]


@st.composite
def syslog_lines(draw):
    """XID lines with every field drawn from valid and near-miss forms,
    mixed with noise and arbitrary text."""
    kind = draw(st.sampled_from(["xid", "xid", "xid", "noise", "text"]))
    if kind == "noise":
        return "2022-03-14T02:11:09.113 gpua001 systemd[1]: Started Session 4"
    if kind == "text":
        return draw(st.text(max_size=40))
    return (
        f"{draw(st.sampled_from(_DATES))}T{draw(st.sampled_from(_CLOCKS))}"
        f"{draw(st.sampled_from(_FRACTIONS))}{draw(st.sampled_from(_SEPARATORS))}"
        f"{draw(st.sampled_from(['gpub042', 'gpua001']))} kernel: "
        f"{draw(st.sampled_from(_MARKERS))} (PCI:0000:C7:00): "
        f"{draw(st.sampled_from(_XIDS))}, pid={draw(st.sampled_from(_PIDS))}, "
        f"{draw(st.sampled_from(_MESSAGES))}"
    )


def _fields_and_bits(records):
    return [
        (r.node_id, r.pci_bus, r.xid, r.message, r.pid, struct.pack("<d", r.time))
        for r in records
    ]


@given(lines=st.lists(syslog_lines(), max_size=60), block=st.integers(1, 9))
@settings(max_examples=300, deadline=None)
def test_parse_batch_equals_parse_syslog_bit_for_bit(lines, block):
    """The columnar parser returns parse_syslog's records, field by field
    and in order, with times equal bit for bit, whatever its block size."""
    want = _fields_and_bits(parse_syslog(lines))
    assert _fields_and_bits(parse_batch(lines)) == want
    with mock.patch.object(parsing, "_BLOCK_ROWS", block):
        assert _fields_and_bits(parse_batch(lines)) == want
