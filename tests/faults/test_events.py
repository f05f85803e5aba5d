"""FaultTrace container semantics."""

import pytest

from repro.faults.events import ErrorEvent, FaultTrace, filter_window, gpu_for_event
from repro.faults.xid import Xid


def _event(t, node="gpua001", bus="0000:07:00", xid=Xid.MMU, **kw):
    return ErrorEvent(time=t, node_id=node, pci_bus=bus, xid=xid, **kw)


class TestErrorEvent:
    def test_end_time(self):
        event = _event(10.0, persistence=5.0)
        assert event.end_time == 15.0

    def test_root_flag(self):
        assert _event(0.0).is_root
        assert not _event(0.0, chain_pos=2).is_root

    def test_shifted(self):
        assert _event(10.0).shifted(5.0).time == 15.0

    def test_gpu_key(self):
        assert _event(0.0).gpu_key == ("gpua001", "0000:07:00")


class TestFaultTrace:
    def test_events_sorted_on_construction(self):
        trace = FaultTrace([_event(5.0), _event(1.0)], window_seconds=10.0)
        assert [e.time for e in trace] == [1.0, 5.0]

    def test_counts_by_xid(self):
        trace = FaultTrace(
            [_event(1.0), _event(2.0, xid=Xid.GSP), _event(3.0)], window_seconds=10.0
        )
        counts = trace.counts_by_xid()
        assert counts[Xid.MMU] == 2 and counts[Xid.GSP] == 1

    def test_chains_grouped_and_ordered(self):
        trace = FaultTrace(
            [
                _event(2.0, xid=Xid.MMU, chain_id=1, chain_pos=1),
                _event(1.0, xid=Xid.PMU_SPI, chain_id=1, chain_pos=0),
                _event(0.5, chain_id=2, chain_pos=0),
            ],
            window_seconds=10.0,
        )
        chains = trace.chains()
        assert [e.xid for e in chains[1]] == [Xid.PMU_SPI, Xid.MMU]
        assert len(chains[2]) == 1

    def test_merge_respaces_chain_ids(self):
        t1 = FaultTrace([_event(1.0, chain_id=0)], window_seconds=10.0)
        t2 = FaultTrace([_event(2.0, chain_id=0)], window_seconds=10.0)
        merged = t1.merged_with(t2)
        assert len({e.chain_id for e in merged}) == 2

    def test_merge_window_mismatch_rejected(self):
        t1 = FaultTrace([], window_seconds=10.0)
        t2 = FaultTrace([], window_seconds=20.0)
        with pytest.raises(ValueError):
            t1.merged_with(t2)

    def test_inoperable_filter(self):
        trace = FaultTrace(
            [_event(1.0, inoperable=True), _event(2.0)], window_seconds=10.0
        )
        assert len(trace.inoperable_events()) == 1

    def test_events_on_gpu(self):
        trace = FaultTrace(
            [_event(1.0), _event(2.0, bus="0000:46:00")], window_seconds=10.0
        )
        assert len(trace.events_on_gpu("gpua001", "0000:07:00")) == 1

    def test_save_load_round_trip(self, tmp_path):
        trace = FaultTrace(
            [_event(1.5, persistence=2.0, chain_id=3, chain_pos=1, inoperable=True),
             _event(4.0, xid=Xid.GSP)],
            window_seconds=10.0, node_ids=("gpua001",), seed=5,
        )
        trace.save(tmp_path / "trace.jsonl")
        restored = FaultTrace.load(tmp_path / "trace.jsonl")
        assert restored.events == trace.events
        assert (restored.window_seconds, restored.node_ids, restored.seed) == (10.0, ("gpua001",), 5)

    def test_load_rejects_bad_header(self, tmp_path):
        path = tmp_path / "x.jsonl"
        path.write_text('{"kind": "other"}\n')
        with pytest.raises(ValueError):
            FaultTrace.load(path)


class TestHelpers:
    def test_filter_window_half_open(self):
        events = [_event(t) for t in (0.0, 5.0, 10.0)]
        assert [e.time for e in filter_window(events, 0.0, 10.0)] == [0.0, 5.0]

    def test_gpu_for_event(self, small_cluster):
        node = small_cluster.gpu_nodes[0]
        gpu = node.gpus[0]
        event = _event(0.0, node=node.node_id, bus=gpu.pci_bus)
        assert gpu_for_event(event, small_cluster.gpus) is gpu

    def test_gpu_for_event_missing(self, small_cluster):
        event = _event(0.0, node="nope", bus="0000:00:00")
        with pytest.raises(KeyError):
            gpu_for_event(event, small_cluster.gpus)
