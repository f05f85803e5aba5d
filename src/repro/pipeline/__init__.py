"""Stage I's front-end: Sources and the extraction that reads them.

One code path for every way records enter the system — batch file sets,
event-store segments, in-memory line streams and synthetic record
streams — with a parallel sharded extraction front-end whose records
are identical for every worker count, as one batch or as a bounded
stream of batches.  Callers hand them straight to Algorithm 1: batch
:func:`~repro.core.coalesce.coalesce_errors` or the incremental
:class:`~repro.core.streaming.StreamingCoalescer`.
See ``docs/pipeline.md`` for the design.
"""

from repro.pipeline.extract import extract_records, iter_source_batches
from repro.pipeline.sources import (
    FileSetSource,
    FileShard,
    LinesSource,
    RecordsSource,
    Source,
)

__all__ = [
    "extract_records",
    "iter_source_batches",
    "FileSetSource",
    "FileShard",
    "LinesSource",
    "RecordsSource",
    "Source",
]
