"""Syslog rendering: line shape, burst structure, determinism."""

import random

import numpy as np
import pytest

from repro.core.parsing import parse_line
from repro.faults.events import ErrorEvent
from repro.faults.xid import Xid
from repro.syslog.format import (
    BLOCK_LINES,
    BURST_GAP_HIGH,
    BURST_GAP_LOW,
    XID_MESSAGES,
    _event_detail,
    _event_seed,
    render_event_lines,
    render_node_lines,
    render_trace,
)
from repro.syslog import noise
from repro.syslog.noise import _TEMPLATES, generate_noise_lines
from repro.util.rng import spawn_rng
from repro.util.timeutil import parse_timestamp
from tests.util.test_timeutil import _per_value_reference


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
        lines = [line for _, event_lines in render_node_lines(events, seed=1, pids={1: 777})
                 for line in event_lines]
        assert "pid='<unknown>'" in lines[0]
        assert "pid=777" in lines[1]


def _per_line_burst(event, seed=0, pid=None):
    """The renderer before block formatting: one draw, one offset and one
    formatted timestamp per line."""
    message = XID_MESSAGES[event.xid].format(detail=_event_detail(event), pci=event.pci_bus)
    pid_text = str(pid) if pid is not None else "'<unknown>'"
    suffix = (
        f" {event.node_id} kernel: NVRM: Xid (PCI:{event.pci_bus}): "
        f"{int(event.xid)}, pid={pid_text}, {message}"
    )
    start = event.time
    if event.persistence <= 0.0:
        return [_per_value_reference(start) + suffix]
    rnd = random.Random(_event_seed(seed, event))
    lines = [_per_value_reference(start) + suffix]
    offset = rnd.uniform(BURST_GAP_LOW, BURST_GAP_HIGH)
    while offset < event.persistence:
        lines.append(_per_value_reference(start + offset) + suffix)
        offset += rnd.uniform(BURST_GAP_LOW, BURST_GAP_HIGH)
    lines.append(_per_value_reference(start + event.persistence) + suffix)
    return lines


def _per_line_noise(node_ids, window_seconds, seed, rate):
    rng = spawn_rng(seed, "noise")
    lines = []
    for node_id in node_ids:
        n_lines = int(rng.poisson(rate * window_seconds / 3600.0))
        times = rng.uniform(0.0, window_seconds, size=n_lines)
        picks = rng.integers(0, len(_TEMPLATES), size=n_lines)
        numbers = rng.integers(1, 60000, size=(max(n_lines, 1), 4))
        for i in range(n_lines):
            body = _TEMPLATES[int(picks[i])].format(
                n=int(numbers[i, 0]), n2=int(numbers[i, 1]),
                n3=int(numbers[i, 2]) % 255, n4=int(numbers[i, 3]) % 255,
            )
            lines.append(f"{_per_value_reference(float(times[i]))} {node_id} {body}")
    return lines


class TestBlockRendering:
    """Block formatting writes what one line at a time wrote."""

    @pytest.mark.parametrize("persistence", [0.0, 0.12, 47.3, 14_998.0, 40_000.0, 75_123.456])
    def test_burst_equals_the_per_line_reference(self, persistence):
        # 40,000 s is about 11,000 lines: three formatting blocks.
        event = _event(t=12_345.6789, persistence=persistence)
        lines = render_event_lines(event, seed=7, pid=99)
        assert lines == _per_line_burst(event, seed=7, pid=99)
        if persistence > 20_000.0:
            assert len(lines) > 2 * BLOCK_LINES

    def test_a_trace_equals_the_per_line_reference_across_blocks(self):
        # Thousands of one-line events with bursts between them: blocks end
        # inside bursts and between events, and a trace's last block is
        # short.
        rng = random.Random(3)
        events = []
        for i in range(3 * BLOCK_LINES):
            persistence = rng.choice([0.0] * 20 + [0.12, 7.5, 300.0, 9_000.0])
            events.append(_event(t=i * 37.25 + rng.random(), persistence=persistence,
                                 xid=rng.choice(list(XID_MESSAGES))))
        pids = {i: 1000 + i for i in range(0, len(events), 7)}
        reference = [
            line
            for i, event in enumerate(events)
            for line in _per_line_burst(event, seed=2, pid=pids.get(i))
        ]
        assert len(reference) > 4 * BLOCK_LINES
        rendered = list(render_node_lines(events, seed=2, pids=pids))
        assert [line for _, lines in rendered for line in lines] == reference
        assert [node for node, _ in rendered] == [event.node_id for event in events]

    def test_noise_equals_the_per_line_reference(self, monkeypatch):
        monkeypatch.setattr(noise, "LINES_PER_NODE_HOUR", 40.0)
        window = 300 * 3600.0  # about 12,000 lines a node
        nodes = ["gpua001", "gpub017", "gpuc003"]
        rendered = [line for _, lines in generate_noise_lines(nodes, window, 5)
                    for line in lines]
        assert rendered == _per_line_noise(nodes, window, 5, 40.0)
        assert len(rendered) > 3 * BLOCK_LINES
