"""Property-based equivalence: streaming coalescer == batch Algorithm 1."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.coalesce import coalesce_errors
from repro.core.parsing import RawXidRecord, XidBatch
from repro.core.streaming import StreamingCoalescer


@st.composite
def record_streams(draw):
    """Time-ordered records over a few GPUs/codes with mixed gap scales."""
    n = draw(st.integers(min_value=1, max_value=120))
    t = 0.0
    records = []
    for _ in range(n):
        t += draw(
            st.one_of(
                st.floats(min_value=0.01, max_value=4.9),  # burst gaps
                st.floats(min_value=5.1, max_value=500.0),  # run breaks
            )
        )
        records.append(
            RawXidRecord(
                time=t,
                node_id=draw(st.sampled_from(["n1", "n2"])),
                pci_bus=draw(st.sampled_from(["p1", "p2"])),
                xid=draw(st.sampled_from([31, 95, 119])),
                message="m",
            )
        )
    return records


@given(records=record_streams())
@settings(max_examples=150, deadline=None)
def test_streaming_equals_batch(records):
    streaming = StreamingCoalescer()
    for record in records:
        streaming.feed(record)
    online = streaming.flush()
    batch = coalesce_errors(XidBatch.from_records(records))
    assert [
        (e.time, e.node_id, e.pci_bus, e.xid, round(e.persistence, 9), e.n_raw)
        for e in online
    ] == [
        (e.time, e.node_id, e.pci_bus, e.xid, round(e.persistence, 9), e.n_raw)
        for e in batch
    ]


@given(records=record_streams(), cutoff=st.floats(min_value=10.0, max_value=200.0))
@settings(max_examples=100, deadline=None)
def test_streaming_respects_cutoff(records, cutoff):
    streaming = StreamingCoalescer(max_persistence=cutoff)
    for record in records:
        streaming.feed(record)
    for error in streaming.flush():
        assert error.persistence <= cutoff + 1e-9


@given(records=record_streams(), threshold=st.floats(min_value=1.0, max_value=300.0))
@settings(max_examples=100, deadline=None)
def test_alarms_fire_exactly_for_long_open_runs(records, threshold):
    """An alarm exists iff some run's final persistence crossed the
    threshold while it accumulated (one alarm per such run)."""
    streaming = StreamingCoalescer(alarm_after_seconds=threshold)
    alarms = [a for a in map(streaming.feed, records) if a is not None]
    errors = streaming.flush()
    long_runs = sum(1 for e in errors if e.persistence >= threshold)
    assert len(alarms) == streaming.alarm_count == long_runs
