"""Syslog rendering: line shape, burst structure, determinism."""

import numpy as np
import pytest

from repro.core.parsing import parse_line
from repro.faults.events import ErrorEvent
from repro.faults.xid import Xid
from repro.syslog.format import (
    BURST_GAP_HIGH,
    BURST_GAP_LOW,
    XID_MESSAGES,
    render_event_lines,
    render_trace,
)
from repro.util.timeutil import parse_timestamp


def _event(t=100.0, persistence=0.0, xid=Xid.GSP):
    return ErrorEvent(
        time=t, node_id="gpub042", pci_bus="0000:C7:00", xid=xid,
        persistence=persistence,
    )


def _times(lines):
    return np.array([parse_timestamp(line.split(" ")[0]) for line in lines])


class TestRenderLine:
    def test_contains_nvrm_marker_and_code(self):
        (line,) = render_event_lines(_event())
        assert "NVRM: Xid (PCI:0000:C7:00): 119," in line
        assert line.split(" ")[1] == "gpub042"

    def test_pid_rendering(self):
        assert "pid=4242," in render_event_lines(_event(), pid=4242)[0]
        assert "pid='<unknown>'," in render_event_lines(_event())[0]

    def test_every_xid_has_template(self):
        for xid in Xid:
            assert xid in XID_MESSAGES
            (line,) = render_event_lines(_event(t=50.0, xid=xid))
            assert f"): {int(xid)}," in line


class TestBurstStructure:
    def test_zero_persistence_single_line(self):
        lines = render_event_lines(_event(persistence=0.0))
        assert len(lines) == 1

    def test_burst_spans_exact_persistence(self):
        event = _event(persistence=30.0)
        times = _times(render_event_lines(event, seed=3))
        assert times[0] == pytest.approx(event.time, abs=0.001)
        assert times[-1] == pytest.approx(event.time + 30.0, abs=0.001)

    def test_burst_gaps_below_coalescing_window(self):
        event = _event(persistence=200.0)
        gaps = np.diff(_times(render_event_lines(event, seed=3)))
        assert gaps.max() < 5.0

    def test_burst_lines_identical_except_timestamp(self):
        lines = render_event_lines(_event(persistence=20.0), seed=3)
        bodies = {line.split(" ", 1)[1] for line in lines}
        assert len(bodies) == 1

    def test_deterministic_per_seed(self):
        event = _event(persistence=50.0)
        assert render_event_lines(event, seed=3) == render_event_lines(event, seed=3)
        assert render_event_lines(event, seed=3) != render_event_lines(event, seed=4)

    def test_tiny_persistence_two_lines(self):
        lines = render_event_lines(_event(persistence=0.12))
        assert len(lines) == 2


class TestBurstOffsets:
    def test_includes_zero_and_persistence(self):
        times = _times(render_event_lines(_event(persistence=47.3)))
        assert times[0] == 100.0
        assert times[-1] == pytest.approx(100.0 + 47.3, abs=0.001)

    def test_gaps_bounded(self):
        gaps = np.diff(_times(render_event_lines(_event(persistence=300.0))))
        assert gaps.max() <= BURST_GAP_HIGH + 0.001
        assert gaps.min() > 0.0

    def test_gap_parameters_stay_below_window(self):
        assert BURST_GAP_HIGH < 5.0
        assert 0 < BURST_GAP_LOW < BURST_GAP_HIGH


class TestRenderTrace:
    def test_round_trip_through_parser(self):
        events = [
            _event(10.0, persistence=1.0, xid=Xid.MMU),
            _event(100.0, persistence=0.0, xid=Xid.NVLINK),
        ]
        records = [parse_line(line) for line in render_trace(events, seed=1)]
        assert all(r is not None for r in records)
        xids = {r.xid for r in records}
        assert xids == {31, 74}

    def test_pid_map_by_event_index(self):
        events = [_event(10.0), _event(50.0)]
        lines = list(render_trace(events, seed=1, pids={1: 777}))
        assert "pid='<unknown>'" in lines[0]
        assert "pid=777" in lines[1]
