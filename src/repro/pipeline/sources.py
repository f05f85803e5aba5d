"""Sources: where Stage-I records come from.

A :class:`Source` describes *where raw records come from* and nothing
else; Extract (:mod:`repro.pipeline.extract`) decides *how* to pull them
out (one column batch per shard, serially or over a process pool, or a
lazy row stream for the live paths), and the caller hands the result to
Algorithm 1.  Two shapes cover every batch ingestion surface
in the repository:

* **file sets** (:class:`FileSetSource`) — a directory of per-node
  syslog files, the batch-study shape.  Each file is an independent
  *shard*: it can be parsed by any worker process, and its records are
  time-ordered (node-local syslog is chronological), so the
  per-shard streams k-way-merge into one globally time-ordered stream.
* **in-memory line streams** (:class:`LinesSource`) — an iterable of raw
  syslog text, the in-memory study and adapter shape.  One shard, no
  ordering promise.

:class:`RecordsSource` closes the loop for simulated streams: already-
parsed (or synthetically generated) records enter the very same
front-end the file-set path uses.  The live fleet path follows growing
files with :class:`~repro.fleet.tailer.DirectoryTailer` instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, List, Sequence, Union

from repro.core.parsing import (
    RawXidRecord,
    XidBatch,
    as_batch,
    iter_file_records,
    iter_parse_syslog,
    parse_batch,
)


# ---------------------------------------------------------------------------
# Shards: the unit of (potentially parallel) extraction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FileShard:
    """One log file; picklable, so worker processes can parse it."""

    path: Path

    def batch(self) -> XidBatch:
        from repro.syslog.reader import iter_log_lines

        return parse_batch(iter_log_lines(self.path))

    def iter_records(self) -> Iterator[RawXidRecord]:
        return iter_file_records(self.path)


class LineShard:
    """An in-memory line iterable (single-use, not picklable)."""

    def __init__(self, lines: Iterable[str]) -> None:
        self._lines = lines

    def batch(self) -> XidBatch:
        return parse_batch(self._lines)

    def iter_records(self) -> Iterator[RawXidRecord]:
        return iter_parse_syslog(self._lines)


class RecordShard:
    """Already-parsed records (synthetic streams, replayed traces): a
    batch, or rows."""

    def __init__(self, records: Union[XidBatch, Iterable[RawXidRecord]]) -> None:
        self._records = records

    def batch(self) -> XidBatch:
        return as_batch(self._records)

    def iter_records(self) -> Iterator[RawXidRecord]:
        return iter(self._records)


# ---------------------------------------------------------------------------
# Sources
# ---------------------------------------------------------------------------


class Source:
    """Base class: a description of where records come from.

    Each shard offers its records two ways: ``batch()``, one
    :class:`~repro.core.parsing.XidBatch`, and ``iter_records()``, a lazy
    row stream.  Extract fans the shards out over worker processes, and
    merges them by time, exactly when there is more than one shard.  A
    source with several shards must therefore make each one picklable and
    time-ordered on its own, as file sets and stores do.

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

    def iter_records(self) -> Iterator[RawXidRecord]:
        """Serial record stream."""
        from repro.pipeline.extract import iter_source_records

        return iter_source_records(self, workers=1)


class FileSetSource(Source):
    """The node log files of one directory."""

    reiterable = True

    def __init__(self, directory: str | Path) -> None:
        from repro.syslog.reader import list_log_files

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
    """Already-parsed records entering the front-end directly (one shard)."""

    def __init__(self, records: Union[XidBatch, Iterable[RawXidRecord]]) -> None:
        self._shard = RecordShard(records)

    def shards(self) -> Sequence[RecordShard]:
        return [self._shard]
