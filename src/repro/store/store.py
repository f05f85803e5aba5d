"""The event store: durable, indexed home for coalesced XID records.

:class:`EventStore` is a directory of immutable columnar segments
(:mod:`repro.store.segment`) under one atomically-updated manifest
(:mod:`repro.store.manifest`).  It supports:

* **incremental append** — a record batch, or a stream of batches, lands
  as one segment per ``segment_records`` rows (write-temp + rename, then
  a manifest commit), so a crash never corrupts existing data;
* **crash recovery** — :meth:`open` sweeps leftovers: half-written
  ``*.tmp`` files are deleted, complete orphan segments (renamed but not
  yet in the manifest) are adopted, files on the garbage list (a
  compaction interrupted before cleanup) are removed;
* **pushdown queries** — :meth:`query` consults each segment's zone map
  and never opens segments that cannot match, then k-way-merges the
  surviving per-segment streams into one globally time-ordered stream
  (ties break by segment order, mirroring the pipeline's shard-order
  tie-break — a store built from the pipeline's merged stream replays
  it record-for-record);
* **compaction** — adjacent small segments merge into one, keeping
  logical content and replay order identical.
"""

from __future__ import annotations

import dataclasses
import hashlib
import heapq
import itertools
import operator
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Tuple, Union

from repro import obs
from repro.core.parsing import RawXidRecord, XidBatch
from repro.store.manifest import MANIFEST_NAME, StoreManifest
from repro.store.query import MATCH_ALL, Query
from repro.store.segment import (
    SegmentCorruptError,
    SegmentInfo,
    StoreError,
    count_matches,
    iter_segment_records,
    read_columns,
    read_footer,
    write_segment,
)

#: Default batch size for appends: one segment per this many records.
DEFAULT_SEGMENT_RECORDS = 50_000

#: Compaction default: segments smaller than this are merge candidates.
DEFAULT_COMPACT_THRESHOLD = 10_000


class EventStore:
    """A persistent, indexed XID record store rooted at one directory."""

    def __init__(self, directory: str | Path, manifest: StoreManifest) -> None:
        self.directory = Path(directory)
        self.manifest = manifest

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @classmethod
    def create(
        cls, directory: str | Path, *, meta: Optional[Dict[str, object]] = None
    ) -> "EventStore":
        """Initialize an empty store (the directory may not already hold one)."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        if (directory / MANIFEST_NAME).exists():
            raise StoreError(f"{directory} already holds an event store")
        manifest = StoreManifest(meta=dict(meta or {}))
        manifest.commit(directory)
        return cls(directory, manifest)

    @classmethod
    def open(cls, directory: str | Path) -> "EventStore":
        """Open an existing store, running crash recovery first."""
        directory = Path(directory)
        if not (directory / MANIFEST_NAME).exists():
            raise StoreError(f"no event store at {directory} (missing {MANIFEST_NAME})")
        manifest = StoreManifest.load(directory)
        store = cls(directory, manifest)
        store._recover()
        return store

    @classmethod
    def open_or_create(
        cls, directory: str | Path, *, meta: Optional[Dict[str, object]] = None
    ) -> "EventStore":
        directory = Path(directory)
        if (directory / MANIFEST_NAME).exists():
            return cls.open(directory)
        return cls.create(directory, meta=meta)

    @staticmethod
    def exists(directory: str | Path) -> bool:
        return (Path(directory) / MANIFEST_NAME).exists()

    def _recover(self) -> None:
        """Sweep crash leftovers; commits the manifest only when it changed."""
        changed = False

        # 1. Half-written segments (and manifests) never made it into the
        #    namespace.
        for leftover in self.directory.glob("*.tmp"):
            leftover.unlink(missing_ok=True)

        # 2. An interrupted compaction left files it meant to delete.
        if self.manifest.garbage:
            for name in self.manifest.garbage:
                (self.directory / name).unlink(missing_ok=True)
            self.manifest.garbage = []
            changed = True

        # 3. Complete segments that missed their manifest commit: adopt
        #    (rename-into-place means the file is whole); structurally
        #    invalid files are quarantined, never silently read.
        known = {entry.name for entry in self.manifest.segments}
        orphans = sorted(
            path
            for path in self.directory.glob("seg-*.seg")
            if path.name not in known
        )
        for path in orphans:
            try:
                info = self._describe(path)
            except SegmentCorruptError:
                path.rename(path.with_suffix(".seg.corrupt"))
                continue
            self.manifest.segments.append(info)
            sequence = _sequence_of(path.name)
            if sequence is not None:
                self.manifest.next_seq = max(self.manifest.next_seq, sequence + 1)
            changed = True
        if changed:
            self.manifest.segments.sort(key=lambda e: _sequence_of(e.name) or 0)
            self.manifest.commit(self.directory)

    def _describe(self, path: Path) -> SegmentInfo:
        footer = read_footer(path)
        zone = footer["zone"]
        payload = path.read_bytes()
        return SegmentInfo(
            name=path.name,
            n_records=int(footer["n_records"]),
            n_bytes=len(payload),
            sha256=hashlib.sha256(payload).hexdigest(),
            time_min=float(zone["time_min"]),
            time_max=float(zone["time_max"]),
            xids=tuple(int(x) for x in zone["xids"]),
            nodes=tuple(str(n) for n in zone["nodes"]),
            serials=tuple(str(s) for s in zone["serials"]),
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def meta(self) -> Dict[str, object]:
        return self.manifest.meta

    @property
    def n_segments(self) -> int:
        return len(self.manifest.segments)

    @property
    def n_records(self) -> int:
        return self.manifest.n_records

    @property
    def time_span(self) -> Optional[Tuple[float, float]]:
        if not self.manifest.segments:
            return None
        return (
            min(s.time_min for s in self.manifest.segments),
            max(s.time_max for s in self.manifest.segments),
        )

    def content_hash(self) -> str:
        """Digest of the store's physical state (segment hashes, in order).

        Recorded in run manifests: two runs citing the same hash read the
        very same bytes.
        """
        digest = hashlib.sha256()
        for entry in self.manifest.segments:
            digest.update(entry.sha256.encode())
        return digest.hexdigest()[:16]

    def stats(self) -> dict:
        xids: Dict[int, int] = {}
        nodes = set()
        serials = set()
        for entry in self.manifest.segments:
            nodes.update(entry.nodes)
            serials.update(entry.serials)
            for xid in entry.xids:
                xids.setdefault(xid, 0)
        # Exact per-XID counts need the columns; zone maps only list
        # presence.  Counting is still pushdown-cheap per XID because
        # non-listing segments are pruned.
        for xid in xids:
            xids[xid] = self.count(Query(xids={xid}))
        span = self.time_span
        return {
            "directory": str(self.directory),
            "schema": self.manifest.schema,
            "n_segments": self.n_segments,
            "n_records": self.n_records,
            "n_bytes": sum(s.n_bytes for s in self.manifest.segments),
            "n_nodes": len(nodes),
            "n_serials": len(serials),
            "time_min": span[0] if span else None,
            "time_max": span[1] if span else None,
            "counts_by_xid": dict(sorted(xids.items())),
            "content_hash": self.content_hash(),
            "meta": dict(self.manifest.meta),
        }

    # ------------------------------------------------------------------
    # Append
    # ------------------------------------------------------------------

    def _next_segment_path(self) -> Path:
        sequence = self.manifest.next_seq
        self.manifest.next_seq = sequence + 1
        return self.directory / f"seg-{sequence:06d}.seg"

    def append_segment(self, batch: XidBatch) -> Optional[SegmentInfo]:
        """Write one batch as a segment and commit it; no-op when empty."""
        if not len(batch):
            return None
        with obs.span("store.segment") as span:
            final = self._next_segment_path()
            temporary = final.with_suffix(".seg.tmp")
            info = write_segment(temporary, batch)
            temporary.rename(final)
            info = dataclasses.replace(info, name=final.name)
            self.manifest.segments.append(info)
            self.manifest.commit(self.directory)
            span.add("store.records_written", info.n_records)
            span.add("store.bytes_written", info.n_bytes)
        return info

    def append(
        self,
        batches: Union[XidBatch, Iterable[XidBatch]],
        *,
        segment_records: int = DEFAULT_SEGMENT_RECORDS,
    ) -> List[SegmentInfo]:
        """Append a batch, or a stream of batches, as one segment per
        ``segment_records`` rows.

        A segment joins the pieces it takes from consecutive batches in
        stream order, and is committed once it is full, so a stream is
        never held whole.
        """
        if segment_records < 1:
            raise ValueError("segment_records must be >= 1")
        written: List[SegmentInfo] = []
        pieces: List[XidBatch] = []
        room = segment_records
        for batch in [batches] if isinstance(batches, XidBatch) else batches:
            start = 0
            while start < len(batch):
                piece = batch.take(slice(start, start + room))
                pieces.append(piece)
                start += len(piece)
                room -= len(piece)
                if not room:
                    written.append(self.append_segment(XidBatch.concat(pieces)))
                    pieces, room = [], segment_records
        if pieces:
            written.append(self.append_segment(XidBatch.concat(pieces)))
        return written

    def ingest(
        self,
        source,
        *,
        workers: int = 1,
        segment_records: int = DEFAULT_SEGMENT_RECORDS,
    ) -> List[SegmentInfo]:
        """Append everything a pipeline :class:`~repro.pipeline.sources.Source`
        holds, riding the shared (optionally parallel) extraction front-end.

        The batches stream in merge order, so a serial ingest holds one
        segment and about a chunk per shard, not the source.  All or
        nothing: when reading the source fails, the segments this call
        appended are dropped again (manifest first, then files) and the
        error propagates, so a failed build never passes for a whole one.
        """
        from repro.pipeline.extract import iter_source_batches

        kept = len(self.manifest.segments)
        try:
            return self.append(
                iter_source_batches(source, workers=workers),
                segment_records=segment_records,
            )
        except BaseException:
            appended = self.manifest.segments[kept:]
            del self.manifest.segments[kept:]
            self.manifest.commit(self.directory)
            for entry in appended:
                (self.directory / entry.name).unlink(missing_ok=True)
            raise

    # ------------------------------------------------------------------
    # Query
    # ------------------------------------------------------------------

    def plan(self, query: Query = MATCH_ALL) -> Tuple[List[SegmentInfo], int]:
        """(segments that may match, number pruned by zone maps)."""
        candidates = [
            entry
            for entry in self.manifest.segments
            if query.matches_zone(entry.zone)
        ]
        pruned = len(self.manifest.segments) - len(candidates)
        obs.add("store.segments_planned", len(self.manifest.segments))
        obs.add("store.segments_pruned", pruned)
        return candidates, pruned

    def query(self, query: Query = MATCH_ALL) -> Iterator[RawXidRecord]:
        """Matching records in global timestamp order.

        Per-segment streams are already time-sorted.  Consecutive
        candidates whose time ranges do not overlap (the common case — a
        store built from one sorted stream cuts it into consecutive
        ranges) are simply chained; only genuinely overlapping runs pay
        for a heap merge.  Both resolve equal timestamps by segment
        (manifest) order — ``heapq.merge`` is stable and a chain keeps
        segment order outright — the same tie-break the pipeline's k-way
        extract merge uses.
        """
        candidates, _ = self.plan(query)
        groups: List[List[SegmentInfo]] = []
        for entry in candidates:
            if groups and entry.time_min >= groups[-1][-1].time_max:
                groups[-1].append(entry)  # ranges don't overlap: concatenate
            else:
                groups.append([entry])
        streams = [
            itertools.chain.from_iterable(
                iter_segment_records(self.directory / entry.name, query)
                for entry in group
            )
            for group in groups
        ]
        if len(streams) == 1:
            return iter(streams[0])
        return heapq.merge(*streams, key=operator.attrgetter("time"))

    def count(self, query: Query = MATCH_ALL) -> int:
        """Matching-record count without materializing record objects."""
        candidates, _ = self.plan(query)
        return sum(
            count_matches(self.directory / entry.name, query)
            for entry in candidates
        )

    # ------------------------------------------------------------------
    # Compaction
    # ------------------------------------------------------------------

    def compact(
        self, *, threshold: int = DEFAULT_COMPACT_THRESHOLD
    ) -> int:
        """Merge adjacent small segments; returns how many were replaced.

        Only *adjacent* (manifest-order) runs merge, and the merged
        segment k-way-merges its inputs with the same stable tie-break
        :meth:`query` uses — replay order is invariant under compaction.
        """
        merged_away = 0
        entries = self.manifest.segments
        runs: List[List[SegmentInfo]] = []
        run: List[SegmentInfo] = []
        for entry in entries:
            if entry.n_records < threshold:
                run.append(entry)
            else:
                if len(run) > 1:
                    runs.append(run)
                run = []
        if len(run) > 1:
            runs.append(run)
        if not runs:
            return 0

        for run in runs:
            combined = XidBatch.merge(
                [read_columns(self.directory / entry.name) for entry in run]
            )
            final = self._next_segment_path()
            temporary = final.with_suffix(".seg.tmp")
            info = write_segment(temporary, combined)
            temporary.rename(final)
            info = dataclasses.replace(info, name=final.name)

            position = self.manifest.segments.index(run[0])
            names = {entry.name for entry in run}
            self.manifest.segments = [
                entry
                for entry in self.manifest.segments
                if entry.name not in names
            ]
            self.manifest.segments.insert(position, info)
            self.manifest.garbage = sorted(names)
            self.manifest.commit(self.directory)

            for name in names:
                (self.directory / name).unlink(missing_ok=True)
            self.manifest.garbage = []
            self.manifest.commit(self.directory)
            merged_away += len(run)
        return merged_away


def _sequence_of(name: str) -> Optional[int]:
    """Segment sequence number from ``seg-XXXXXX.seg``; None if foreign."""
    if not (name.startswith("seg-") and name.endswith(".seg")):
        return None
    try:
        return int(name[4:-4])
    except ValueError:
        return None
