"""Concurrent live-log tailers with bounded queues and backpressure.

The collection side of the fleet health service: follow many per-node
syslog files as the Slurm/fault simulators (or a real syslog daemon)
append to them, parse ``NVRM: Xid`` lines into
:class:`~repro.core.parsing.RawXidRecord`, and merge the per-file streams
into a single *arrival-order* record stream — no global sort anywhere.

Ordering is sufficient for the streaming pipeline because one GPU's
records always live in its node's file, and node-local syslog is
time-ordered: :class:`~repro.core.streaming.StreamingCoalescer` only
requires per-GPU order, which file order already provides.  Cross-node
interleaving (the part a global sort would "fix") is irrelevant to it.

Backpressure: every parsed record goes through one bounded
:class:`queue.Queue`.  When the consumer falls behind, ``put`` blocks the
tailer workers, which stop reading from disk — memory stays bounded by
the queue size plus one partial line per file, never by log volume.
"""

from __future__ import annotations

import queue
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List

from repro.core.parsing import RawXidRecord, iter_parse_syslog
from repro.syslog.reader import iter_log_lines, list_log_files

__all__ = ["DirectoryTailer", "LogTailer", "TailStats"]

#: Sentinel pushed once per worker when it finishes draining after a stop.
_DONE = object()

#: Tailer threads, bounded-queue capacity (records) and idle poll period
#: (seconds) of a :class:`DirectoryTailer`.
WORKERS = 2
QUEUE_SIZE = 4096
POLL_INTERVAL = 0.05


# ---------------------------------------------------------------------------
# Live tailing
# ---------------------------------------------------------------------------


@dataclass
class TailStats:
    """Counters one tailer (or a pool) exposes to the metrics endpoint."""

    files: int = 0
    bytes_read: int = 0
    lines_seen: int = 0
    records_parsed: int = 0
    polls: int = 0

    def merge(self, other: "TailStats") -> None:
        self.files += other.files
        self.bytes_read += other.bytes_read
        self.lines_seen += other.lines_seen
        self.records_parsed += other.records_parsed
        self.polls += other.polls


class LogTailer:
    """Incrementally read newly appended lines from one plain-text file.

    Keeps a byte offset and a partial-line buffer; a poll reads whatever
    the writer appended since the previous poll and returns only *complete*
    lines (a line still missing its newline stays buffered).  Rotation and
    truncation both reset to the start, like ``tail -F``: a shrinking file
    is an in-place truncation, and a changed inode means the path now
    names a *different* file — even one already larger than the old
    offset, where resuming at the stale offset would stream garbage from
    the middle of the replacement.

    ``.log.gz`` files cannot be followed incrementally; the directory
    tailer reads them once at discovery as static backlog instead.
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
        """All complete lines appended since the last poll."""
        self.stats.polls += 1
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
            chunk = handle.read(size - self._offset)
        self._offset += len(chunk)
        self.stats.bytes_read += len(chunk)
        data = self._buffer + chunk
        *complete, self._buffer = data.split(b"\n")
        lines = [part.decode("utf-8", errors="replace") for part in complete]
        self.stats.lines_seen += len(lines)
        return lines

    def poll_records(self) -> List[RawXidRecord]:
        """Parsed XID records appended since the last poll."""
        records = list(iter_parse_syslog(self.poll_lines()))
        self.stats.records_parsed += len(records)
        return records


class DirectoryTailer:
    """Follow every log file in a directory with a pool of worker threads.

    :data:`WORKERS` threads partition files by name hash, poll their
    partition round-robin, and push parsed records into one bounded queue
    of :data:`QUEUE_SIZE` records; the consumer iterates :meth:`records`.
    New files appearing in the directory are picked up on the fly;
    ``*.log.gz`` files are ingested once as backlog.

    The queue is the backpressure boundary: a slow consumer blocks the
    workers' ``put`` calls, which pauses disk reads rather than buffering
    unboundedly.
    """

    def __init__(self, directory: str | Path, *, from_start: bool = True) -> None:
        self.directory = Path(directory)
        self.queue: "queue.Queue[object]" = queue.Queue(maxsize=QUEUE_SIZE)
        self.from_start = from_start
        self._tailers: Dict[Path, LogTailer] = {}
        self._gz_done: set = set()
        self._threads: List[threading.Thread] = []
        self._stop = threading.Event()
        self._started = False
        self._lock = threading.Lock()

    # -- lifecycle -----------------------------------------------------

    def start(self) -> "DirectoryTailer":
        if self._started:
            raise RuntimeError("tailer already started")
        self._started = True
        for index in range(WORKERS):
            thread = threading.Thread(
                target=self._run_worker, args=(index,), daemon=True,
                name=f"fleet-tailer-{index}",
            )
            thread.start()
            self._threads.append(thread)
        return self

    def stop(self) -> None:
        """Ask workers to finish their current pass and drain out."""
        self._stop.set()

    def join(self, timeout: float | None = None) -> None:
        deadline = None if timeout is None else time.monotonic() + timeout
        for thread in self._threads:
            remaining = None if deadline is None else max(0.0, deadline - time.monotonic())
            thread.join(remaining)

    # -- consumer side -------------------------------------------------

    def records(self) -> Iterator[RawXidRecord]:
        """Yield records in arrival order until stopped and drained.

        The iterator ends only after :meth:`stop` is called and every
        worker has pushed its final batch — the consumer is expected to
        keep draining until then (that is what releases blocked workers).
        """
        if not self._started:
            raise RuntimeError("start() the tailer before consuming records")
        done = 0
        while done < WORKERS:
            item = self.queue.get()
            if item is _DONE:
                done += 1
                continue
            yield item  # type: ignore[misc]

    @property
    def queue_depth(self) -> int:
        return self.queue.qsize()

    def stats(self) -> TailStats:
        total = TailStats()
        with self._lock:
            for tailer in self._tailers.values():
                total.merge(tailer.stats)
        return total

    # -- worker side ---------------------------------------------------

    def _discover(self, worker_index: int) -> List[LogTailer]:
        """Refresh this worker's partition of the directory's files."""
        mine: List[LogTailer] = []
        try:
            names = list_log_files(self.directory)
        except OSError:
            return mine
        for path in names:
            if hash(path.name) % WORKERS != worker_index:
                continue
            if path.name.endswith(".log.gz"):
                with self._lock:
                    if path in self._gz_done:
                        continue
                    self._gz_done.add(path)
                self._ingest_static(path)
                continue
            with self._lock:
                tailer = self._tailers.get(path)
                if tailer is None:
                    tailer = LogTailer(path, from_start=self.from_start)
                    self._tailers[path] = tailer
            mine.append(tailer)
        return mine

    def _ingest_static(self, path: Path) -> None:
        """Read a compressed file once as backlog (not followable)."""
        tailer = LogTailer(path)  # stats holder only
        with self._lock:
            self._tailers[path] = tailer

        def _counted_lines() -> Iterator[str]:
            for line in iter_log_lines(path):
                tailer.stats.lines_seen += 1
                yield line

        for record in iter_parse_syslog(_counted_lines()):
            tailer.stats.records_parsed += 1
            self._put(record)

    def _put(self, record: RawXidRecord) -> None:
        """Blocking put: backpressure when the consumer falls behind."""
        while True:
            try:
                self.queue.put(record, timeout=0.2)
                return
            except queue.Full:
                if not threading.main_thread().is_alive():
                    return  # interpreter shutting down: drop rather than hang

    def _run_worker(self, worker_index: int) -> None:
        try:
            while True:
                tailers = self._discover(worker_index)
                busy = False
                for tailer in tailers:
                    for record in tailer.poll_records():
                        busy = True
                        self._put(record)
                if self._stop.is_set():
                    # One final pass already happened above; exit after a
                    # quiet round so writer-then-stop races don't lose tails.
                    if not busy:
                        break
                    continue
                if not busy:
                    time.sleep(POLL_INTERVAL)
        finally:
            self.queue.put(_DONE)
