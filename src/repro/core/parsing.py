"""Stage I: extract NVIDIA XID records from raw syslog text.

The paper built a set of regular expressions from NVIDIA's XID documentation
and ran them over 202 GB of mixed system logs.  This module is that
extraction stage: it recognizes ``NVRM: Xid`` lines, pulls out the timestamp,
host, PCI bus address, XID code, pid, and message, and ignores everything
else (including near-miss lines that merely mention GPUs).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, List, Optional

from repro.util.timeutil import parse_timestamp

#: The extraction pattern.  Anchored on the literal ``NVRM: Xid`` marker the
#: NVIDIA driver emits; tolerant of pid being a number or ``'<unknown>'``.
XID_LINE_PATTERN = re.compile(
    r"^(?P<ts>\d{4}-\d{2}-\d{2}T\d{2}:\d{2}:\d{2}(?:\.\d+)?)\s+"
    r"(?P<host>\S+)\s+kernel:\s+"
    r"NVRM:\s+Xid\s+\(PCI:(?P<pci>[0-9A-Fa-f:]+)\):\s+"
    r"(?P<xid>\d+),\s+pid=(?P<pid>'[^']*'|\S+?),\s+"
    r"(?P<msg>.*)$"
)

#: Cheap pre-filter: lines without this marker can never match.
_MARKER = "NVRM: Xid"


@dataclass(frozen=True)
class RawXidRecord:
    """One extracted XID log line (pre-coalescing)."""

    time: float
    node_id: str
    pci_bus: str
    xid: int
    message: str
    pid: Optional[int] = None

    @property
    def gpu_key(self) -> tuple[str, str]:
        return (self.node_id, self.pci_bus)


def parse_line(line: str) -> Optional[RawXidRecord]:
    """Parse one syslog line; ``None`` if it is not an XID record."""
    if _MARKER not in line:
        return None
    match = XID_LINE_PATTERN.match(line)
    if match is None:
        return None
    pid_text = match["pid"]
    pid = int(pid_text) if pid_text.isdigit() else None
    return RawXidRecord(
        time=parse_timestamp(match["ts"]),
        node_id=match["host"],
        pci_bus=match["pci"],
        xid=int(match["xid"]),
        message=match["msg"],
        pid=pid,
    )


def iter_parse_syslog(lines: Iterable[str]) -> Iterator[RawXidRecord]:
    """The shared record-iterator: lines in, parsed XID records out.

    Every ingestion surface — the Stage-I sources behind the study,
    ``monitor`` and ``store build``, and the fleet tailers — reduces to
    this one loop over :func:`parse_line`.
    """
    for line in lines:
        record = parse_line(line)
        if record is not None:
            yield record


def iter_file_records(path: str | Path) -> Iterator[RawXidRecord]:
    """Stream parsed XID records from one log file (plain or ``.gz``).

    File-order iteration: per-GPU time order is preserved whenever the
    file itself is chronological (node-local syslog is).
    """
    from repro.syslog.reader import iter_log_lines

    return iter_parse_syslog(iter_log_lines(path))


def parse_syslog(lines: Iterable[str]) -> List[RawXidRecord]:
    """Extract every XID record from an iterable of syslog lines.

    Input ordering is irrelevant; downstream coalescing sorts.
    """
    return list(iter_parse_syslog(lines))
