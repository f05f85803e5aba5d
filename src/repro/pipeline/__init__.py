"""Stage I's front-end: Sources and the extraction that reads them.

One code path for every way records enter the system — batch file sets,
event-store segments, in-memory line streams and synthetic record
streams — with a parallel sharded extraction front-end whose record
stream is identical for every worker count.  Callers hand that stream
straight to Algorithm 1: batch :func:`~repro.core.coalesce.coalesce_errors`
or the incremental :class:`~repro.core.streaming.StreamingCoalescer`.
See ``docs/pipeline.md`` for the design.
"""

from repro.pipeline.extract import extract_records, iter_source_records
from repro.pipeline.sources import (
    FileSetSource,
    FileShard,
    LinesSource,
    RecordsSource,
    Source,
)

__all__ = [
    "extract_records",
    "iter_source_records",
    "FileSetSource",
    "FileShard",
    "LinesSource",
    "RecordsSource",
    "Source",
]
