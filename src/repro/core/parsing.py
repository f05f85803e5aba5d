"""Stage I: extract NVIDIA XID records from raw syslog text.

The paper built a set of regular expressions from NVIDIA's XID documentation
and ran them over 202 GB of mixed system logs.  This module is that
extraction stage: it recognizes ``NVRM: Xid`` lines, pulls out the timestamp,
host, PCI bus address, XID code, pid, and message, and ignores everything
else (including near-miss lines that merely mention GPUs).

:func:`parse_batch` is Stage I, for the study, the event store, the
batch stream and the fleet tailer alike.  It returns an :class:`XidBatch`,
the columnar batch that Algorithm 1, the ``--jobs`` transport and the
store carry.  It runs the regex once per distinct line remainder after the
timestamp token, and decodes canonical timestamps in one numpy pass.
:class:`RawXidRecord` is the row view, built only where one record is
consumed at a time: iterating a batch yields them.  :func:`parse_line`
parses one line into one; it is :func:`parse_batch`'s fallback for lines
whose timestamp only the full regex can judge.

A line is a record when it matches :data:`XID_LINE_PATTERN`, its date is a
real calendar date, its time of day lies within 00:00:00-23:59:60, and its
XID code is below 2**63.  The pid is an int only when its text is decimal
and below 2**63; otherwise it is ``None``.
"""

from __future__ import annotations

import datetime as _dt
import heapq
import re
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.util.timeutil import EPOCH, parse_timestamp

#: Everything after the timestamp and its separating whitespace.
_TAIL = (
    r"(?P<host>\S+)\s+kernel:\s+"
    r"NVRM:\s+Xid\s+\(PCI:(?P<pci>[0-9A-Fa-f:]+)\):\s+"
    r"(?P<xid>\d+),\s+pid=(?P<pid>'[^']*'|\S+?),\s+"
    r"(?P<msg>.*)$"
)

#: The extraction pattern.  Anchored on the literal ``NVRM: Xid`` marker the
#: NVIDIA driver emits; tolerant of pid being a number or ``'<unknown>'``.
XID_LINE_PATTERN = re.compile(
    r"^(?P<ts>\d{4}-\d{2}-\d{2}T\d{2}:\d{2}:\d{2}(?:\.\d+)?)\s+" + _TAIL
)

#: The pattern's tail, matched against the remainder after a line's first
#: space.  The timestamp holds no whitespace, so a line whose text before
#: the first space is a canonical timestamp matches :data:`XID_LINE_PATTERN`
#: exactly when its remainder matches this.
_TAIL_PATTERN = re.compile(r"\s*" + _TAIL)

#: Cheap pre-filter: lines without this marker can never match.
_MARKER = "NVRM: Xid"

#: Exclusive upper bound of an XID code or pid (the store's int64 columns).
_INT_LIMIT = 2**63

#: Records whose timestamps the parser decodes together: its per-line
#: state is bounded by a block, not by the stream.
_BLOCK_ROWS = 4096

#: Rows a batch turns into Python objects at a time while it is iterated.
_ROW_CHUNK = 4096


@dataclass(frozen=True)
class RawXidRecord:
    """One extracted XID log line (pre-coalescing)."""

    time: float
    node_id: str
    pci_bus: str
    xid: int
    message: str
    pid: Optional[int] = None

    @property
    def gpu_key(self) -> tuple[str, str]:
        return (self.node_id, self.pci_bus)


def _int63(text: str) -> Optional[int]:
    """``text`` as an int when it is decimal and below 2**63, else ``None``."""
    if not text.isdecimal():
        return None
    try:
        value = int(text)
    except ValueError:  # more digits than int() converts
        return None
    return value if value < _INT_LIMIT else None


def _fields(match: re.Match) -> Optional[Tuple[str, str, int, Optional[int], str]]:
    """(host, pci, xid, pid, msg) of a pattern match; ``None`` if the XID
    code does not fit the int64 column."""
    xid = _int63(match["xid"])
    if xid is None:
        return None
    return match["host"], match["pci"], xid, _int63(match["pid"]), match["msg"]


def parse_line(line: str) -> Optional[RawXidRecord]:
    """Parse one syslog line; ``None`` if it is not an XID record."""
    if _MARKER not in line:
        return None
    match = XID_LINE_PATTERN.match(line)
    if match is None:
        return None
    fields = _fields(match)
    if fields is None:
        return None
    try:
        time = parse_timestamp(match["ts"])
    except ValueError:  # not a calendar date, or a time of day out of range
        return None
    node_id, pci_bus, xid, pid, message = fields
    return RawXidRecord(
        time=time, node_id=node_id, pci_bus=pci_bus, xid=xid,
        message=message, pid=pid,
    )


# ---------------------------------------------------------------------------
# The column batch
# ---------------------------------------------------------------------------

#: (code column, its dictionary) for every dictionary-coded string column.
_CODED = (("node", "node_dict"), ("pci", "pci_dict"), ("msg", "msg_dict"))


class XidBatch:
    """A batch of XID records as columns: Stage I's output, Algorithm 1's
    input, and the body of one store segment.

    ``time`` (float64), ``xid`` (int64) and ``pid`` (int64, -1 for none)
    are plain numpy columns.  ``node``, ``pci`` and ``msg`` are integer
    codes (int32 in memory, int64 as a segment stores them) into
    ``node_dict``, ``pci_dict`` and ``msg_dict``, lists of distinct strings
    (entries no row uses are allowed).  Iterating yields
    :class:`RawXidRecord` rows; ``==`` compares rows by value, in order,
    whatever the codes.
    """

    __slots__ = (
        "time", "xid", "node", "pci", "msg", "pid",
        "node_dict", "pci_dict", "msg_dict",
    )

    def __init__(self, time, xid, node, pci, msg, pid,
                 node_dict: Sequence[str], pci_dict: Sequence[str],
                 msg_dict: Sequence[str]) -> None:
        self.time = time
        self.xid = xid
        self.node = node
        self.pci = pci
        self.msg = msg
        self.pid = pid
        self.node_dict = node_dict
        self.pci_dict = pci_dict
        self.msg_dict = msg_dict

    @classmethod
    def empty(cls) -> "XidBatch":
        ints, codes = np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int32)
        return cls(np.empty(0, dtype=np.float64), ints, codes, codes, codes, ints,
                   [], [], [])

    @classmethod
    def from_records(cls, records: Iterable[RawXidRecord]) -> "XidBatch":
        """Gather rows into one batch (codes in first-seen order)."""
        rows = list(records)
        nodes: Dict[str, int] = {}
        pcis: Dict[str, int] = {}
        msgs: Dict[str, int] = {}

        def codes(index: Dict[str, int], values) -> np.ndarray:
            return np.array(
                [index.setdefault(v, len(index)) for v in values], dtype=np.int32
            )

        return cls(
            np.array([r.time for r in rows], dtype=np.float64),
            np.array([r.xid for r in rows], dtype=np.int64),
            codes(nodes, [r.node_id for r in rows]),
            codes(pcis, [r.pci_bus for r in rows]),
            codes(msgs, [r.message for r in rows]),
            np.array([-1 if r.pid is None else r.pid for r in rows], dtype=np.int64),
            list(nodes), list(pcis), list(msgs),
        )

    @classmethod
    def concat(cls, batches: Sequence["XidBatch"]) -> "XidBatch":
        """The rows of ``batches`` one after another, dictionaries merged."""
        return _gather(list(batches), slice(None))

    @classmethod
    def merge(cls, batches: Sequence["XidBatch"]) -> "XidBatch":
        """The rows of ``batches`` in ``heapq.merge`` order by time (ties
        by batch order), dictionaries merged."""
        batches = list(batches)
        if len(batches) <= 1:
            return _gather(batches, slice(None))
        return _gather(batches, _merge_order([b.time for b in batches]))

    def take(self, rows) -> "XidBatch":
        """The rows at ``rows`` (an index array or a slice); same dictionaries."""
        return XidBatch(
            self.time[rows], self.xid[rows], self.node[rows], self.pci[rows],
            self.msg[rows], self.pid[rows],
            self.node_dict, self.pci_dict, self.msg_dict,
        )

    def rank(self, codes_name: str) -> np.ndarray:
        """Per row, the rank of its ``node``/``pci``/``msg`` string in sorted
        string order: sorting by it sorts by the strings."""
        dictionary = getattr(self, f"{codes_name}_dict")
        ranks = np.empty(len(dictionary), dtype=np.int64)
        ranks[sorted(range(len(dictionary)), key=dictionary.__getitem__)] = np.arange(
            len(dictionary)
        )
        return ranks[getattr(self, codes_name)]

    def __len__(self) -> int:
        return len(self.time)

    def __iter__(self) -> Iterator[RawXidRecord]:
        node_dict, pci_dict, msg_dict = self.node_dict, self.pci_dict, self.msg_dict
        for start in range(0, len(self), _ROW_CHUNK):
            rows = slice(start, start + _ROW_CHUNK)
            for time, node, pci, xid, msg, pid in zip(
                self.time[rows].tolist(), self.node[rows].tolist(),
                self.pci[rows].tolist(), self.xid[rows].tolist(),
                self.msg[rows].tolist(), self.pid[rows].tolist(),
            ):
                yield RawXidRecord(
                    time, node_dict[node], pci_dict[pci], xid, msg_dict[msg],
                    None if pid < 0 else pid,
                )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, XidBatch):
            return NotImplemented
        if not (
            len(self) == len(other)
            and np.array_equal(self.time, other.time)
            and np.array_equal(self.xid, other.xid)
            and np.array_equal(self.pid, other.pid)
        ):
            return False
        for codes_name, dict_name in _CODED:
            index = {value: code for code, value in enumerate(getattr(self, dict_name))}
            remap = np.array(
                [index.get(value, -1) for value in getattr(other, dict_name)],
                dtype=np.int64,
            )
            if not np.array_equal(getattr(self, codes_name), remap[getattr(other, codes_name)]):
                return False
        return True

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"XidBatch({len(self)} records)"


def _gather(batches: List[XidBatch], rows) -> XidBatch:
    """The rows of ``batches`` concatenated, taken at ``rows`` (an index
    array or a slice).

    Columns are gathered one at a time, so this holds little more than
    its input and its output.
    """
    if len(batches) <= 1:
        return batches[0] if batches else XidBatch.empty()
    columns = {}
    for name in ("time", "xid", "pid"):
        columns[name] = np.concatenate([getattr(b, name) for b in batches])[rows]
    for codes_name, dict_name in _CODED:
        index: Dict[str, int] = {}
        columns[codes_name] = np.concatenate([
            np.array(
                [index.setdefault(v, len(index)) for v in getattr(b, dict_name)],
                dtype=np.int32,
            )[getattr(b, codes_name)]
            for b in batches
        ])[rows]
        columns[dict_name] = list(index)
    return XidBatch(**columns)


def _merge_order(times: Sequence[np.ndarray]) -> np.ndarray:
    """Row order of ``heapq.merge`` by time over the concatenation of
    ``times``, one array per stream.

    That order breaks time ties by stream order.  When every stream is
    non-decreasing in time (node-local syslog and store segments are) it
    is a stable argsort; otherwise the heap merge runs on ``(time, row)``
    pairs, which reproduces it exactly.
    """
    if all(np.all(t[1:] >= t[:-1]) for t in times):
        return np.argsort(np.concatenate(times), kind="stable")
    streams, offset = [], 0
    for t in times:
        streams.append(zip(t.tolist(), range(offset, offset + len(t))))
        offset += len(t)
    return np.fromiter(
        (row for _, row in heapq.merge(*streams)), dtype=np.int64, count=offset
    )


# ---------------------------------------------------------------------------
# The columnar parser
# ---------------------------------------------------------------------------

#: The canonical timestamp shape; ``0`` marks a digit.
_SHAPE = "0000-00-00T00:00:00.000"
_DIGIT_AT = np.array([c == "0" for c in _SHAPE])
_SHAPE_BYTES = np.frombuffer(_SHAPE.encode("ascii"), dtype=np.uint8)


def _canonical_width(token: str) -> str:
    """A token in the 23-character shape: whole seconds gain ``.000`` (a
    zero fraction adds 0.0, as in :func:`parse_timestamp`); anything else
    becomes a filler that fails the shape check."""
    if token.isascii():
        if len(token) == len(_SHAPE):
            return token
        if len(token) == 19:
            return token + ".000"
    return "?" * len(_SHAPE)


def _midnight(key: int) -> float:
    """Epoch seconds of the midnight starting day ``YYYYMMDD``; NaN when
    that is not a calendar date."""
    year, month_day = divmod(key, 10000)
    month, day = divmod(month_day, 100)
    try:
        return (_dt.datetime(year, month, day) - EPOCH).total_seconds()
    except ValueError:
        return float("nan")


#: :func:`_decode_timestamps` row outcomes.
_REJECT, _RECORD, _FALLBACK = 0, 1, 2


def _decode_timestamps(tokens: List[str]) -> Tuple[np.ndarray, np.ndarray]:
    """Decode timestamp tokens in one numpy pass: ``(times, outcome)``.

    A canonical token (ASCII ``YYYY-MM-DDTHH:MM:SS`` with an optional
    three-digit fraction) decodes as ``(midnight + seconds) + fff/1000.0``.
    Each step is correctly rounded, so the result equals
    :func:`parse_timestamp` bit for bit.  Its outcome is ``_RECORD``, or
    ``_REJECT`` when the date or the time of day is out of range.  Any other
    token is ``_FALLBACK``: only the regex can judge it.
    """
    text = "".join(tokens)
    if set(map(len, tokens)) != {len(_SHAPE)} or not text.isascii():
        text = "".join(map(_canonical_width, tokens))
    raw = np.frombuffer(text.encode("ascii"), dtype=np.uint8).reshape(-1, len(_SHAPE))
    digits = raw - np.uint8(0x30)  # a non-digit wraps to a value above 9
    canonical = np.where(_DIGIT_AT, digits <= 9, raw == _SHAPE_BYTES).all(axis=1)

    def number(first: int, width: int) -> np.ndarray:
        value = digits[:, first].astype(np.int64)
        for column in range(first + 1, first + width):
            value = value * 10 + digits[:, column]
        return value

    hour, minute, second = number(11, 2), number(14, 2), number(17, 2)
    dates, day_of_row = np.unique(
        number(0, 4) * 10000 + number(5, 2) * 100 + number(8, 2), return_inverse=True
    )
    midnight = np.array([_midnight(k) for k in dates.tolist()], dtype=np.float64)
    midnight = midnight[day_of_row.reshape(-1)]
    times = (midnight + (hour * 3600 + minute * 60 + second)) + number(20, 3) / 1000.0
    in_range = ~np.isnan(midnight) & (hour <= 23) & (minute <= 59) & (second <= 60)
    outcome = np.where(canonical, np.where(in_range, _RECORD, _REJECT), _FALLBACK)
    return times, outcome


class _Parser:
    """A columnar parse of one line stream.

    Until :meth:`batch`, each record is held as its time plus the index of
    its row template (node, bus, XID, pid and message codes): 12 bytes.
    Timestamps decode a block of :data:`_BLOCK_ROWS` at a time.
    """

    def __init__(self) -> None:
        #: Remainder text -> row template index, or -1 when the remainder
        #: is not an XID tail.
        self._templates_by_rest: Dict[str, int] = {}
        #: (node code, pci code, xid, pid or -1, msg code) per template.
        self._templates: List[Tuple[int, int, int, int, int]] = []
        #: The remainder each template was parsed from (None for a
        #: fallback row's template).
        self._rests: List[Optional[str]] = []
        self._nodes: Dict[str, int] = {}
        self._pcis: Dict[str, int] = {}
        self._msgs: Dict[str, int] = {}
        #: The block being filled: timestamp tokens with their templates,
        #: and records only the full regex found, each with the token
        #: position it precedes.
        self._tokens: List[str] = []
        self._token_rows: List[int] = []
        self._late: List[Tuple[int, RawXidRecord]] = []
        #: Decoded blocks: record times and templates.
        self._times: List[np.ndarray] = []
        self._rows: List[np.ndarray] = []

    def _template(self, fields, rest: Optional[str]) -> int:
        node, pci, xid, pid, msg = fields
        self._templates.append((
            self._nodes.setdefault(node, len(self._nodes)),
            self._pcis.setdefault(pci, len(self._pcis)),
            xid,
            -1 if pid is None else pid,
            self._msgs.setdefault(msg, len(self._msgs)),
        ))
        self._rests.append(rest)
        return len(self._templates) - 1

    def _record_template(self, record: RawXidRecord) -> int:
        return self._template(
            (record.node_id, record.pci_bus, record.xid, record.pid, record.message),
            None,
        )

    def read(self, lines: Iterable[str]) -> None:
        """Parse the stream of lines."""
        templates_by_rest = self._templates_by_rest
        tokens, token_rows, late = self._tokens, self._token_rows, self._late
        for line in lines:
            if _MARKER not in line:
                continue
            token, _, rest = line.partition(" ")
            row = templates_by_rest.get(rest)
            if row is None:
                match = _TAIL_PATTERN.match(rest)
                fields = _fields(match) if match is not None else None
                row = -1 if fields is None else self._template(fields, rest)
                templates_by_rest[rest] = row
            if row >= 0:
                tokens.append(token)
                token_rows.append(row)
                if len(tokens) == _BLOCK_ROWS:
                    self._decode()
            else:  # e.g. a tab, not a space, after the timestamp
                record = parse_line(line)
                if record is not None:
                    late.append((len(tokens), record))

    def _decode(self) -> None:
        """Decode the block being filled, and empty it."""
        tokens, token_rows, late = self._tokens, self._token_rows, self._late
        times = np.empty(0, dtype=np.float64)
        keep = np.empty(0, dtype=bool)
        rows = np.array(token_rows, dtype=np.int32)
        if tokens:
            times, outcome = _decode_timestamps(tokens)
            keep = outcome == _RECORD
            for i in np.flatnonzero(outcome == _FALLBACK).tolist():
                record = parse_line(f"{tokens[i]} {self._rests[token_rows[i]]}")
                if record is not None:
                    times[i] = record.time
                    rows[i] = self._record_template(record)
                    keep[i] = True
        if late:
            at = [position for position, _ in late]
            times = np.insert(times, at, [record.time for _, record in late])
            rows = np.insert(rows, at, [self._record_template(record) for _, record in late])
            keep = np.insert(keep, at, True)
        self._times.append(times[keep])
        self._rows.append(rows[keep])
        tokens.clear()
        token_rows.clear()
        late.clear()

    def batch(self) -> XidBatch:
        """The stream's records as one batch, in line order."""
        self._decode()
        time = np.concatenate(self._times)
        rows = np.concatenate(self._rows)
        self._times, self._rows = [], []
        table = np.array(self._templates, dtype=np.int64).reshape(-1, 5)
        node, pci, msg = (table[:, k].astype(np.int32)[rows] for k in (0, 1, 4))
        xid, pid = table[:, 2][rows], table[:, 3][rows]
        return XidBatch(
            time, xid, node, pci, msg, pid,
            list(self._nodes), list(self._pcis), list(self._msgs),
        )


def parse_batch(lines: Iterable[str]) -> XidBatch:
    """Parse syslog lines into one :class:`XidBatch`.

    Equal, record for record and in line order, to :func:`parse_line` run
    on each line.  The regex runs once per distinct remainder after a
    line's first space, and each block of timestamps decodes in one numpy
    pass.
    """
    parser = _Parser()
    parser.read(lines)
    return parser.batch()
