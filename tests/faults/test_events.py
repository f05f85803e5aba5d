"""FaultTrace container semantics."""

from repro.faults.events import ErrorEvent, FaultTrace
from repro.faults.xid import Xid


def _event(t, node="gpua001", bus="0000:07:00", xid=Xid.MMU, **kw):
    return ErrorEvent(time=t, node_id=node, pci_bus=bus, xid=xid, **kw)


class TestErrorEvent:
    def test_end_time(self):
        event = _event(10.0, persistence=5.0)
        assert event.end_time == 15.0

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
