"""Segment files: the store's immutable columnar unit.

One segment holds one :class:`~repro.core.parsing.XidBatch` of Stage-I
records as per-column numpy arrays, laid out so a reader can answer
"could this segment match?" without touching the columns:

```
+----------+----------------------------+-------------+----------+----------+
| MAGIC(8) | column arrays (.npy each)  | JSON footer | len(Q,8) | MAGIC(8) |
+----------+----------------------------+-------------+----------+----------+
```

The footer (read by seeking to the end) carries the schema version, the
per-column byte offsets, the string dictionaries (node ids, PCI buses,
messages — duplicate bursts make messages highly repetitive, so
dictionary coding is where the compression lives), and the segment's
**zone map**: min/max timestamp plus the exact XID / node / GPU-serial
value sets.  The query layer prunes on the zone map; only surviving
segments get their columns decoded.

Rows are stable-sorted by timestamp at write time, so a segment written
from an already time-ordered batch (the pipeline's merge) stores it
verbatim — that is what makes store replay byte-identical to the
pipeline's records.  Writes go to a temporary name and are renamed into
place by the caller; a segment file that exists under its final name is
complete by construction.
"""

from __future__ import annotations

import hashlib
import io
import json
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Optional, Tuple

import numpy as np

from repro.core.parsing import RawXidRecord, XidBatch
from repro.store.query import MATCH_ALL, Query, gpu_serial

#: Leading and trailing file marker ("repro xid segment, layout 1").
MAGIC = b"RXSEG001"

#: Schema identity embedded in every footer and the store manifest.  The
#: reader rejects anything whose major line differs — column meanings
#: changed, not just grew.
SCHEMA_VERSION = "repro.store/1"

#: Column order in the file body.  ``node``/``pci``/``msg`` are integer
#: codes into the footer's dictionaries; ``pid`` encodes ``None`` as -1.
COLUMN_NAMES = ("time", "xid", "node", "pci", "msg", "pid")

_LEN_STRUCT = struct.Struct("<Q")


class StoreError(Exception):
    """Base class for event-store failures."""


class StoreSchemaError(StoreError):
    """A segment or manifest carries an incompatible schema version."""


class SegmentCorruptError(StoreError):
    """A segment file fails structural validation (bad magic / footer)."""


@dataclass(frozen=True)
class SegmentInfo:
    """What the manifest records about one segment (zone map included)."""

    name: str
    n_records: int
    n_bytes: int
    sha256: str
    time_min: float
    time_max: float
    xids: Tuple[int, ...]
    nodes: Tuple[str, ...]
    serials: Tuple[str, ...]

    @property
    def zone(self) -> dict:
        return {
            "time_min": self.time_min,
            "time_max": self.time_max,
            "xids": self.xids,
            "nodes": self.nodes,
            "serials": self.serials,
        }

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "n_records": self.n_records,
            "n_bytes": self.n_bytes,
            "sha256": self.sha256,
            "time_min": self.time_min,
            "time_max": self.time_max,
            "xids": list(self.xids),
            "nodes": list(self.nodes),
            "serials": list(self.serials),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SegmentInfo":
        return cls(
            name=str(data["name"]),
            n_records=int(data["n_records"]),
            n_bytes=int(data["n_bytes"]),
            sha256=str(data["sha256"]),
            time_min=float(data["time_min"]),
            time_max=float(data["time_max"]),
            xids=tuple(int(x) for x in data["xids"]),
            nodes=tuple(str(n) for n in data["nodes"]),
            serials=tuple(str(s) for s in data["serials"]),
        )


# ---------------------------------------------------------------------------
# Writing
# ---------------------------------------------------------------------------


def _first_seen_coding(codes, dictionary):
    """A code column recoded so codes count up in order of first
    appearance, and its dictionary of the strings used, in that order."""
    used, first, inverse = np.unique(codes, return_index=True, return_inverse=True)
    by_first = np.argsort(first)
    new_code = np.empty(len(used), dtype=np.int64)
    new_code[by_first] = np.arange(len(used))
    return new_code[inverse.reshape(-1)], [dictionary[c] for c in used[by_first].tolist()]


def encode_segment(batch: XidBatch) -> bytes:
    """Serialize one batch of records into segment-file bytes.

    Rows are stable-sorted by timestamp, so equal-timestamp records keep
    their input order — the property that makes a store built from the
    pipeline's merged batch replay it identically.  Dictionary codes are
    assigned in first-seen order over the sorted rows.
    """
    if not len(batch):
        raise ValueError("a segment must hold at least one record")
    rows = batch.take(np.argsort(batch.time, kind="stable"))
    columns = {
        "time": rows.time.astype(np.float64, copy=False),
        "xid": rows.xid.astype(np.int64, copy=False),
        "pid": rows.pid.astype(np.int64, copy=False),
    }
    dicts = {}
    for name in ("node", "pci", "msg"):
        columns[name], dicts[name] = _first_seen_coding(
            getattr(rows, name), getattr(rows, f"{name}_dict")
        )

    body = io.BytesIO()
    body.write(MAGIC)
    layout = {}
    for name in COLUMN_NAMES:
        offset = body.tell()
        np.save(body, columns[name], allow_pickle=False)
        layout[name] = {"offset": offset, "n_bytes": body.tell() - offset}

    pairs = np.unique((columns["node"] << 32) | columns["pci"])
    serials = sorted(
        {gpu_serial(dicts["node"][p >> 32], dicts["pci"][p & 0xFFFFFFFF])
         for p in pairs.tolist()}
    )
    footer = {
        "schema": SCHEMA_VERSION,
        "n_records": len(rows),
        "columns": layout,
        "dicts": dicts,
        "zone": {
            "time_min": float(columns["time"][0]),
            "time_max": float(columns["time"][-1]),
            "xids": np.unique(columns["xid"]).tolist(),
            "nodes": sorted(set(dicts["node"])),
            "serials": serials,
        },
    }
    footer_bytes = json.dumps(footer, separators=(",", ":")).encode("utf-8")
    body.write(footer_bytes)
    body.write(_LEN_STRUCT.pack(len(footer_bytes)))
    body.write(MAGIC)
    return body.getvalue()


def write_segment(path: str | Path, batch: XidBatch) -> SegmentInfo:
    """Write one segment file (flushed to disk) and describe it.

    The caller owns the naming protocol (write under a temporary name,
    rename into place); this function just produces a complete file.
    """
    import os

    path = Path(path)
    payload = encode_segment(batch)
    with open(path, "wb") as handle:
        handle.write(payload)
        handle.flush()
        os.fsync(handle.fileno())
    footer = _parse_footer(payload)
    zone = footer["zone"]
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


# ---------------------------------------------------------------------------
# Reading
# ---------------------------------------------------------------------------


def _check_schema(schema: object) -> None:
    if schema != SCHEMA_VERSION:
        raise StoreSchemaError(
            f"unsupported store schema {schema!r} (this build reads "
            f"{SCHEMA_VERSION!r})"
        )


def _parse_footer(payload: bytes) -> dict:
    """Validate framing and return the footer of in-memory segment bytes."""
    tail = len(MAGIC) + _LEN_STRUCT.size
    if len(payload) < len(MAGIC) + tail or not payload.startswith(MAGIC):
        raise SegmentCorruptError("segment too short or bad leading magic")
    if not payload.endswith(MAGIC):
        raise SegmentCorruptError("segment missing trailing magic")
    (footer_len,) = _LEN_STRUCT.unpack(
        payload[-tail:-len(MAGIC)]
    )
    footer_end = len(payload) - tail
    if footer_len > footer_end - len(MAGIC):
        raise SegmentCorruptError("segment footer length out of range")
    try:
        footer = json.loads(payload[footer_end - footer_len:footer_end])
    except ValueError as error:
        raise SegmentCorruptError(f"segment footer is not JSON: {error}") from None
    _check_schema(footer.get("schema"))
    return footer


def read_footer(path: str | Path) -> dict:
    """Read a segment's footer (and validate framing) without its columns."""
    path = Path(path)
    tail = len(MAGIC) + _LEN_STRUCT.size
    with open(path, "rb") as handle:
        handle.seek(0, io.SEEK_END)
        size = handle.tell()
        if size < len(MAGIC) + tail:
            raise SegmentCorruptError(f"{path.name}: segment too short")
        handle.seek(0)
        if handle.read(len(MAGIC)) != MAGIC:
            raise SegmentCorruptError(f"{path.name}: bad leading magic")
        handle.seek(size - tail)
        trailer = handle.read(tail)
        if trailer[-len(MAGIC):] != MAGIC:
            raise SegmentCorruptError(f"{path.name}: missing trailing magic")
        (footer_len,) = _LEN_STRUCT.unpack(trailer[: _LEN_STRUCT.size])
        footer_end = size - tail
        if footer_len > footer_end - len(MAGIC):
            raise SegmentCorruptError(f"{path.name}: footer length out of range")
        handle.seek(footer_end - footer_len)
        try:
            footer = json.loads(handle.read(footer_len))
        except ValueError as error:
            raise SegmentCorruptError(
                f"{path.name}: footer is not JSON: {error}"
            ) from None
    _check_schema(footer.get("schema"))
    return footer


def read_columns(path: str | Path, footer: Optional[dict] = None) -> XidBatch:
    """Decode a segment's column arrays."""
    path = Path(path)
    if footer is None:
        footer = read_footer(path)
    arrays = {}
    with open(path, "rb") as handle:
        for name in COLUMN_NAMES:
            handle.seek(footer["columns"][name]["offset"])
            arrays[name] = np.load(handle, allow_pickle=False)
    dicts = footer["dicts"]
    return XidBatch(
        time=arrays["time"],
        xid=arrays["xid"],
        node=arrays["node"],
        pci=arrays["pci"],
        msg=arrays["msg"],
        pid=arrays["pid"],
        node_dict=list(dicts["node"]),
        pci_dict=list(dicts["pci"]),
        msg_dict=list(dicts["msg"]),
    )


def read_segment(path: str | Path, query: Query = MATCH_ALL) -> XidBatch:
    """A segment's rows that match ``query``, in stored (time) order.

    The scan span covers the column decode plus the vectorized residual
    predicate (the I/O- and numpy-bound part).
    """
    from repro import obs

    path = Path(path)
    with obs.span("store.segment.scan", segment=path.name) as span:
        columns = read_columns(path)
        matched = (
            columns if query.unconstrained
            else columns.take(np.flatnonzero(query.mask(columns)))
        )
        span.add("store.segments_opened", 1)
        span.add("store.rows_scanned", len(columns))
        span.add("store.rows_matched", len(matched))
    return matched


def iter_segment_records(
    path: str | Path, query: Query = MATCH_ALL
) -> Iterator[RawXidRecord]:
    """Stream a segment's matching records in stored (time) order.

    Still a generator — consumers interleave segments lazily, so the
    full store is never resident, and a segment is decoded only once its
    first record is asked for.
    """
    yield from read_segment(path, query)


def count_matches(path: str | Path, query: Query = MATCH_ALL) -> int:
    """How many rows of one segment match, without materializing records."""
    footer = read_footer(path)
    if query.unconstrained:
        return int(footer["n_records"])
    columns = read_columns(path, footer)
    return int(query.mask(columns).sum())
