"""Columnar on-disk event store for coalesced XID records.

The persistent, indexed home of the merged record stream Stage I's
extraction front-end produces: immutable per-column numpy segments with
zone-map footers, one atomically-committed manifest, crash-safe append
and compaction, and a pushdown query layer that yields records in global
timestamp order — byte-identical to the pipeline stream the store was
built from.  See ``docs/store.md`` for the format and recovery
semantics.
"""

from repro.store.cursor import DEFAULT_WINDOW_SECONDS, ReplayCursor
from repro.store.manifest import MANIFEST_NAME, StoreManifest
from repro.store.query import MATCH_ALL, Query, gpu_serial
from repro.store.segment import (
    SCHEMA_VERSION,
    SegmentCorruptError,
    SegmentInfo,
    StoreError,
    StoreSchemaError,
)
from repro.store.source import SegmentShard, StoreSource
from repro.store.store import (
    DEFAULT_SEGMENT_RECORDS,
    EventStore,
)
from repro.store.writer import StoreWriter

__all__ = [
    "DEFAULT_SEGMENT_RECORDS",
    "DEFAULT_WINDOW_SECONDS",
    "EventStore",
    "ReplayCursor",
    "MANIFEST_NAME",
    "MATCH_ALL",
    "Query",
    "SCHEMA_VERSION",
    "SegmentCorruptError",
    "SegmentInfo",
    "SegmentShard",
    "StoreError",
    "StoreManifest",
    "StoreSchemaError",
    "StoreSource",
    "StoreWriter",
    "gpu_serial",
]
