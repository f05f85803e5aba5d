"""Sources: where Stage-I records come from.

A :class:`Source` describes *where raw records come from* and nothing
else; Extract (:mod:`repro.pipeline.extract`) decides *how* to pull them
out (one column batch per shard, serially or over a process pool, or a
stream of chunk batches for the paths that must hold little), and the
caller hands the result to Algorithm 1.  Every shard parses its lines
with :func:`~repro.core.parsing.parse_batch`, and a file shard reads them
through :func:`~repro.syslog.reader.iter_log_lines`.  Two shapes cover
every batch ingestion surface in the repository:

* **file sets** (:class:`FileSetSource`) — a directory of per-node
  syslog files, the batch-study shape.  Each file is an independent
  *shard*: it can be parsed by any worker process, and its records are
  time-ordered (node-local syslog is chronological), so the
  per-shard batches merge by time into one globally time-ordered batch.
* **in-memory line streams** (:class:`LinesSource`) — an iterable of raw
  syslog text, the in-memory study and adapter shape.  One shard, no
  ordering promise.

:class:`RecordsSource` closes the loop for simulated streams: an
already-parsed :class:`~repro.core.parsing.XidBatch` enters the very same
front-end the file-set path uses.  The live fleet path follows growing
files with :class:`~repro.fleet.tailer.DirectoryTailer` instead, parsing
a ``.log.gz`` backlog with :func:`parse_chunks` as a file shard does.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, List, Sequence

from repro.core.parsing import XidBatch, parse_batch
from repro.syslog.reader import iter_log_lines, list_log_files

#: Lines a file or line shard parses into one chunk of the batch stream,
#: which holds about one chunk per open shard.
CHUNK_LINES = 8192


def parse_chunks(lines: Iterable[str]) -> Iterator[XidBatch]:
    """``lines`` parsed :data:`CHUNK_LINES` at a time, a batch per chunk."""
    lines = iter(lines)
    for first in lines:
        yield parse_batch(
            itertools.chain((first,), itertools.islice(lines, CHUNK_LINES - 1))
        )


# ---------------------------------------------------------------------------
# Shards: the unit of (potentially parallel) extraction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FileShard:
    """One log file; picklable, so worker processes can parse it."""

    path: Path

    def batch(self) -> XidBatch:
        return parse_batch(iter_log_lines(self.path))

    def chunks(self) -> Iterator[XidBatch]:
        return parse_chunks(iter_log_lines(self.path))


class LineShard:
    """An in-memory line iterable (single-use, not picklable)."""

    def __init__(self, lines: Iterable[str]) -> None:
        self._lines = lines

    def batch(self) -> XidBatch:
        return parse_batch(self._lines)

    def chunks(self) -> Iterator[XidBatch]:
        return parse_chunks(self._lines)


class RecordShard:
    """An already-parsed batch (synthetic streams, replayed traces)."""

    def __init__(self, batch: XidBatch) -> None:
        self._batch = batch

    def batch(self) -> XidBatch:
        return self._batch

    def chunks(self) -> Iterator[XidBatch]:
        return iter((self._batch,))


# ---------------------------------------------------------------------------
# Sources
# ---------------------------------------------------------------------------


class Source:
    """Base class: a description of where records come from.

    Each shard offers its records two ways: ``batch()``, one
    :class:`~repro.core.parsing.XidBatch`, and ``chunks()``, the same rows
    as consecutive batches that each hold a bounded part of the shard.
    Extract fans the shards out over worker processes, and merges them by
    time, exactly when there is more than one shard.  A source with
    several shards must therefore make each one picklable and time-ordered
    on its own, as file sets and stores do.

    ``reiterable``
        :meth:`shards` may be called repeatedly and every pass yields
        the same records (files and store segments are; one-shot
        in-memory iterables are not).  Callers that would otherwise
        materialize the stream (the study's record cache) may stream
        instead when the source is reiterable.
    """

    reiterable: bool = False

    def shards(self) -> Sequence[object]:
        raise NotImplementedError


class FileSetSource(Source):
    """The node log files of one directory."""

    reiterable = True

    def __init__(self, directory: str | Path) -> None:
        self.paths: List[Path] = list_log_files(directory)

    def shards(self) -> Sequence[FileShard]:
        return [FileShard(path) for path in self.paths]


class LinesSource(Source):
    """An in-memory iterable of raw syslog lines (one unordered shard)."""

    def __init__(self, lines: Iterable[str]) -> None:
        self._shard = LineShard(lines)

    def shards(self) -> Sequence[LineShard]:
        return [self._shard]


class RecordsSource(Source):
    """An already-parsed batch entering the front-end directly (one shard)."""

    def __init__(self, batch: XidBatch) -> None:
        self._shard = RecordShard(batch)

    def shards(self) -> Sequence[RecordShard]:
        return [self._shard]
