"""The store as a pipeline source: segments are shards.

:class:`StoreSource` lets everything downstream of extraction — both
Algorithm-1 engines, the study, ``replay`` — read from a built store
exactly the way it reads from raw log files, except that "extraction"
is now a columnar decode instead of a regex scan.  Each segment is one
picklable shard (a path), so ``workers > 1`` fans decode across
processes; segments are internally time-ordered, so the standard time
merge applies and ties break by shard order = manifest order = the
store's own replay order.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Sequence, Union

from repro.core.parsing import XidBatch
from repro.pipeline.sources import Source
from repro.store.segment import read_segment
from repro.store.store import EventStore


@dataclass(frozen=True)
class SegmentShard:
    """One segment file; picklable."""

    path: Path

    def batch(self) -> XidBatch:
        return read_segment(self.path)

    def chunks(self) -> Iterator[XidBatch]:
        return iter((self.batch(),))


class StoreSource(Source):
    """Read a built :class:`~repro.store.store.EventStore` as a pipeline source."""

    reiterable = True

    def __init__(self, store: Union[EventStore, str, Path]) -> None:
        if not isinstance(store, EventStore):
            store = EventStore.open(store)
        self.store = store

    def shards(self) -> Sequence[SegmentShard]:
        candidates, _ = self.store.plan()
        return [SegmentShard(self.store.directory / entry.name) for entry in candidates]
