"""Live-log tailing: poll a directory of node logs, a byte budget at a time.

The collection side of the fleet health service: follow many per-node
syslog files as the Slurm/fault simulators (or a real syslog daemon)
append to them, and parse ``NVRM: Xid`` lines into
:class:`~repro.core.parsing.XidBatch`es with Stage I's one parser,
:func:`~repro.core.parsing.parse_batch`.  The service's ingest thread
calls :meth:`DirectoryTailer.poll` in a loop; no other thread reads the
files, and nothing queues between the reader and the consumer.

Ordering is sufficient for the streaming pipeline because one GPU's
records always live in its node's file, and node-local syslog is
time-ordered: :class:`~repro.core.streaming.StreamingCoalescer` only
requires per-GPU order, which file order already provides.  A pass walks
the files in name order, so a static directory is always read in the
same order.

Memory: a pass reads at most :data:`POLL_BYTES` from each plain file, so
the reader holds one budget's lines at a time plus one partial line per
file, whatever the backlog; a ``.log.gz`` backlog is read through
:func:`~repro.syslog.reader.iter_log_lines` and parsed
:data:`~repro.pipeline.sources.CHUNK_LINES` lines at a time, as a file
shard of the batch study is.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List

from repro.core.parsing import XidBatch, parse_batch
from repro.pipeline.sources import parse_chunks
from repro.syslog.reader import CorruptLogError, iter_log_lines, list_log_files

__all__ = ["DirectoryTailer", "LogTailer", "TailStats"]

#: Bytes one pass reads from each plain file at most.
POLL_BYTES = 1 << 20


@dataclass
class TailStats:
    """Counters one tailer (or a directory of them) exposes to ``/metrics``."""

    files: int = 0
    bytes_read: int = 0
    lines_seen: int = 0
    records_parsed: int = 0

    def merge(self, other: "TailStats") -> None:
        self.files += other.files
        self.bytes_read += other.bytes_read
        self.lines_seen += other.lines_seen
        self.records_parsed += other.records_parsed


class LogTailer:
    """Incrementally read newly appended lines from one plain-text file.

    Keeps a byte offset and a partial-line buffer; a poll reads what the
    writer appended since the previous poll, up to :data:`POLL_BYTES`,
    and returns only *complete* lines (a line still missing its newline
    stays buffered).  Rotation and truncation both reset to the start,
    like ``tail -F``: a shrinking file is an in-place truncation, and a
    changed inode means the path now names a *different* file — even one
    already larger than the old offset, where resuming at the stale
    offset would stream garbage from the middle of the replacement.

    ``.log.gz`` files cannot be followed incrementally; :meth:`backlog`
    reads one once instead.
    """

    def __init__(self, path: str | Path, *, from_start: bool = True) -> None:
        self.path = Path(path)
        self._offset = 0
        self._buffer = b""
        self._inode: int | None = None
        self.stats = TailStats(files=1)
        if not from_start and self.path.exists():
            stat = self.path.stat()
            self._offset = stat.st_size
            self._inode = stat.st_ino

    def poll_lines(self) -> List[str]:
        """The complete lines in the next :data:`POLL_BYTES` appended."""
        try:
            stat = self.path.stat()
        except OSError:
            return []
        size = stat.st_size
        rotated = self._inode is not None and stat.st_ino != self._inode
        if rotated or size < self._offset:  # rotated / truncated: start over
            self._offset = 0
            self._buffer = b""
        self._inode = stat.st_ino
        if size == self._offset:
            return []
        with open(self.path, "rb") as handle:
            handle.seek(self._offset)
            chunk = handle.read(min(size - self._offset, POLL_BYTES))
        self._offset += len(chunk)
        self.stats.bytes_read += len(chunk)
        data = self._buffer + chunk
        *complete, self._buffer = data.split(b"\n")
        lines = [part.decode("utf-8", errors="replace") for part in complete]
        self.stats.lines_seen += len(lines)
        return lines

    def poll_records(self) -> XidBatch:
        """The XID records in the next :data:`POLL_BYTES` appended."""
        batch = parse_batch(self.poll_lines())
        self.stats.records_parsed += len(batch)
        return batch

    def backlog(self) -> Iterator[XidBatch]:
        """Every record of a compressed file, once, a chunk at a time.

        A file that vanishes, cannot be read or ends mid-stream yields
        the records read up to that point.
        """
        for batch in parse_chunks(self._backlog_lines()):
            self.stats.records_parsed += len(batch)
            if len(batch):
                yield batch

    def _backlog_lines(self) -> Iterator[str]:
        try:
            for line in iter_log_lines(self.path):
                self.stats.lines_seen += 1
                yield line
        except (OSError, CorruptLogError):
            return


class DirectoryTailer:
    """Follow every log file in a directory, one :meth:`poll` at a time.

    A file found after the first pass is new, so it is read from byte 0;
    files present at the first pass start at their end unless
    ``from_start``.
    """

    def __init__(self, directory: str | Path, *, from_start: bool = True) -> None:
        self.directory = Path(directory)
        self._from_start = from_start
        self._tailers: Dict[Path, LogTailer] = {}
        #: Whether the last pass read no byte of a plain file.
        self.idle = True

    def poll(self) -> Iterator[XidBatch]:
        """One pass over the directory's files in name order.

        Yields, per plain file that gained XID records, one batch of them
        (up to :data:`POLL_BYTES` of the file), and the backlog of a
        ``.log.gz`` file when first found, a chunk per batch.
        """
        try:
            paths = list_log_files(self.directory)
        except OSError:
            paths = []
        self.idle = True
        for path in paths:
            tailer = self._tailers.get(path)
            found = tailer is None
            if found:
                tailer = self._tailers[path] = LogTailer(
                    path, from_start=self._from_start
                )
            if not path.name.endswith(".log.gz"):
                read = tailer.stats.bytes_read
                batch = tailer.poll_records()
                self.idle = self.idle and tailer.stats.bytes_read == read
                if len(batch):
                    yield batch
            elif found and self._from_start:
                yield from tailer.backlog()
        self._from_start = True

    def stats(self) -> TailStats:
        total = TailStats()
        # A copy: the metrics thread reads while the ingest thread adds.
        for tailer in list(self._tailers.values()):
            total.merge(tailer.stats)
        return total
