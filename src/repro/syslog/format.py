"""Rendering fault events as NVIDIA-driver kernel log lines.

Line shape (mirroring production ``NVRM: Xid`` messages)::

    2022-03-14T02:11:09.113 gpub042 kernel: NVRM: Xid (PCI:0000:C7:00): 119, pid=8821, Timeout after 6s of waiting for RPC response from GPU0 GSP!

An event with a nonzero *persistence* renders as a duplicate burst: the same
message repeated with inter-line gaps strictly below the pipeline's 5-second
coalescing window, first line at the event's start and last line exactly at
``start + persistence`` — so a correct Algorithm-1 implementation recovers
one error with the generated persistence.
"""

from __future__ import annotations

import random
import zlib
from itertools import chain, islice
from typing import Dict, Iterable, Iterator, List, Tuple

from repro.faults.events import ErrorEvent
from repro.faults.xid import Xid
from repro.util.timeutil import format_timestamps

#: Inter-line gaps inside a duplicate burst (seconds); strictly below the
#: 5-second coalescing window so a burst always coalesces into one error.
BURST_GAP_LOW = 2.4
BURST_GAP_HIGH = 4.9

#: Lines whose timestamps are formatted together, across events: the
#: renderer's arrays are bounded by a block, however long a burst.
BLOCK_LINES = 4096

#: One human-readable message template per XID (``{pci}`` / ``{detail}``
#: placeholders).  Templates intentionally mimic the phrasing of NVIDIA's
#: XID documentation so the extraction regexes face realistic text.
XID_MESSAGES: Dict[Xid, str] = {
    Xid.GENERAL_SW: "Graphics Exception: ESR 0x{detail:x}, general software error",
    Xid.MMU: "MMU Fault: ENGINE GRAPHICS GPCCLIENT faulted @ 0x7f{detail:07x}_00000000",
    Xid.RESET_CHANNEL: "Reset Channel Verification Error on channel {detail}",
    Xid.DBE: "DBE (Double Bit Error) ECC Error detected at row 0x{detail:x}",
    Xid.RRE: "Row Remapping Event: row 0x{detail:x} remapped to spare",
    Xid.RRF: "Row Remapping Failure: no spare rows for bank 0x{detail:x}",
    Xid.NVLINK: "NVLink: fatal error detected on link {detail}",
    Xid.FALLEN_OFF_BUS: "GPU has fallen off the bus",
    Xid.CONTAINED: "Contained ECC error: uncorrectable error contained, process terminated",
    Xid.UNCONTAINED: "Uncontained ECC error: uncorrectable error could not be contained",
    Xid.GSP: "Timeout after 6s of waiting for RPC response from GSP! "
    "Expected function {detail} (GSP_RM_CONTROL)",
    Xid.PMU_SPI: "PMU SPI RPC read failure, communication with PMU lost (cmd 0x{detail:x})",
    # XID 136 is undocumented in NVIDIA's manual; production logs show a
    # bare status word, which is what we render.
    Xid.XID_136: "Status 0x{detail:x}",
}


def _event_detail(event: ErrorEvent) -> int:
    """A deterministic per-event detail word (stable across renders)."""
    acc = 1469598103934665603
    for token in (event.node_id, event.pci_bus, str(int(event.xid)), f"{event.time:.3f}"):
        for byte in token.encode():
            acc ^= byte
            acc = (acc * 1099511628211) % (1 << 64)
    return acc % 0xFFFF


def _event_seed(seed: int, event: ErrorEvent) -> int:
    key = f"{seed}|{event.node_id}|{event.pci_bus}|{int(event.xid)}|{event.time:.3f}"
    return zlib.crc32(key.encode())


def _line_times(event: ErrorEvent, seed: int) -> List[float]:
    """The times of an event's lines: its start, one line per running sum
    of gaps from the event's own RNG while the sum stays below the
    persistence, and ``start + persistence``."""
    start = event.time
    if event.persistence <= 0.0:
        return [start]
    rnd = random.Random(_event_seed(seed, event))
    times = [start]
    offset = rnd.uniform(BURST_GAP_LOW, BURST_GAP_HIGH)
    while offset < event.persistence:
        times.append(start + offset)
        offset += rnd.uniform(BURST_GAP_LOW, BURST_GAP_HIGH)
    times.append(start + event.persistence)
    return times


def _suffix(event: ErrorEvent, pid: int | None) -> str:
    """Everything after a line's timestamp.  The message body is computed
    once per event: duplicate lines are byte-identical except for their
    timestamps, exactly like the driver's repeated logging."""
    message = XID_MESSAGES[event.xid].format(detail=_event_detail(event), pci=event.pci_bus)
    pid_text = str(pid) if pid is not None else "'<unknown>'"
    return (
        f" {event.node_id} kernel: NVRM: Xid (PCI:{event.pci_bus}): "
        f"{int(event.xid)}, pid={pid_text}, {message}"
    )


def _stamped(
    pending: List[Tuple[ErrorEvent, str, List[float]]],
) -> Iterator[Tuple[str, List[str]]]:
    """``(node, lines)`` of each pending event, its times formatted with
    the others' in blocks of :data:`BLOCK_LINES` to twice that (a short
    last block joins the one before it)."""
    times = [t for _, _, event_times in pending for t in event_times]
    starts = range(0, max(len(times) // BLOCK_LINES, 1) * BLOCK_LINES, BLOCK_LINES)
    stamps = chain.from_iterable(
        format_timestamps(times[start:end])
        for start, end in zip(starts, [*starts[1:], len(times)])
    )
    for event, suffix, event_times in pending:
        yield event.node_id, [stamp + suffix for stamp in islice(stamps, len(event_times))]


def render_node_lines(
    events: Iterable[ErrorEvent],
    seed: int = 0,
    pids: Dict[int, int] | None = None,
) -> Iterator[Tuple[str, List[str]]]:
    """``(node, lines)`` for each event in turn: all its syslog lines (the
    duplicate burst).

    Burst gaps come from a cheap per-event-seeded RNG, so output is
    deterministic regardless of rendering order.  Timestamps are formatted
    a block of at least :data:`BLOCK_LINES` at a time across events, so no
    array outlives a block, and a short event pays no formatting call of
    its own.  ``pids`` optionally maps an event's index (enumeration
    order) to the owning process ID for job-attributed errors.
    """
    pending: List[Tuple[ErrorEvent, str, List[float]]] = []
    lines = 0
    for index, event in enumerate(events):
        times = _line_times(event, seed)
        pending.append((event, _suffix(event, pids.get(index) if pids else None), times))
        lines += len(times)
        if lines >= BLOCK_LINES:
            yield from _stamped(pending)
            pending, lines = [], 0
    yield from _stamped(pending)


def render_event_lines(
    event: ErrorEvent,
    seed: int = 0,
    pid: int | None = None,
) -> List[str]:
    """All syslog lines (the duplicate burst) for one event."""
    ((_, lines),) = render_node_lines([event], seed, None if pid is None else {0: pid})
    return lines


def render_trace(events: Iterable[ErrorEvent], seed: int = 0) -> Iterator[str]:
    """Render a full trace, streaming lines event-by-event.

    Lines are *not* globally time-ordered (overlapping bursts from different
    events interleave in real logs too; the per-node log files the paper
    mined are only approximately ordered).  The analysis pipeline sorts
    parsed records itself and must never rely on input ordering.
    """
    for _, lines in render_node_lines(events, seed):
        yield from lines
