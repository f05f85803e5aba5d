"""Slurm accounting database: job rows and node availability events.

A light stand-in for the ``sacct``/``sacctmgr event list`` tables the paper
mined: job completion records plus node DOWN/DRAIN intervals.  Supports
round-tripping through JSON-lines files so examples can persist datasets.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import islice
from operator import itemgetter
from pathlib import Path
from typing import Dict, List, Sequence

import numpy as np

from repro import obs
from repro.slurm.job import CHUNK_ROWS, NO_XID, STATES, JobTable, JobTableBuilder

#: ``json.dumps``'s spelling of the floats ``repr`` writes as nan and inf.
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
_STATE_CODE = {state.value: code for code, state in enumerate(STATES)}
#: The JSON types each field of a job row may hold.
_FIELD_TYPES = {
    **dict.fromkeys(("job_id", "n_gpus", "exit_code"), {int}),
    **dict.fromkeys(("submit_time", "start_time", "end_time"), {int, float}),
    **dict.fromkeys(("name", "user", "partition", "state"), {str}),
    "is_ml": {bool},
    "gpus": {list},
    "truth_failed_by_xid": {int, type(None)},
}
_JSON_TYPE = {type(None): "null", bool: "a boolean", int: "an integer", float: "a number",
              str: "a string", list: "an array", dict: "an object"}
_JOB_LINE = (
    '{"kind": "job", "job_id": %s, "name": %s, "user": %s, "submit_time": %s, '
    '"start_time": %s, "end_time": %s, "n_gpus": %s, "gpus": %s, '
    '"partition": %s, "is_ml": %s, "state": %s, "exit_code": %s, '
    '"truth_failed_by_xid": %s}\n'
)


class SlurmFileError(ValueError):
    """A Slurm accounting file with a row that does not load.

    Names the file and its first bad line, and pickles whole, so a
    process-pool worker's failure reaches the caller as it was raised.
    """

    def __init__(self, path: str, line: int, reason: str) -> None:
        super().__init__(path, line, reason)
        self.path = path
        self.line = line
        self.reason = reason

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: bad Slurm accounting row ({self.reason})"


@dataclass(frozen=True)
class NodeEvent:
    """One node-unavailability interval (drain + reboot/repair)."""

    node_id: str
    start_time: float
    duration_hours: float
    reason: str  # e.g. "xid119", "xid95"


class SlurmDatabase:
    """Job accounting plus node events, with simple query helpers."""

    def __init__(
        self,
        jobs: JobTable,
        node_events: Sequence[NodeEvent] = (),
        window_seconds: float = 0.0,
    ) -> None:
        if np.any(jobs.start[1:] < jobs.start[:-1]):
            jobs = jobs.take(np.argsort(jobs.start, kind="stable"))
        #: One row per job, in start-time order (ties keep their order).
        self.jobs = jobs
        self.node_events: List[NodeEvent] = sorted(node_events, key=lambda e: e.start_time)
        self.window_seconds = window_seconds

    def __len__(self) -> int:
        return len(self.jobs)

    # -- queries ----------------------------------------------------------

    def success_rate(self) -> float:
        if not len(self.jobs):
            return 0.0
        return int(np.count_nonzero(self.jobs.succeeded)) / len(self.jobs)

    def total_downtime_node_hours(self) -> float:
        return sum(e.duration_hours for e in self.node_events)

    # -- persistence --------------------------------------------------------

    def save(self, path: str | Path) -> None:
        """Write the database as JSON lines (jobs, then node events), each
        line as ``json.dumps`` writes the row."""
        path = Path(path)
        with open(path, "w", encoding="utf-8") as handle:
            meta = {"kind": "meta", "window_seconds": self.window_seconds}
            handle.write(json.dumps(meta) + "\n")
            jobs = self.jobs
            names, users, partitions = (
                [json.dumps(value) for value in vocabulary]
                for vocabulary in (jobs.name_dict, jobs.user_dict, jobs.partition_dict)
            )
            gpus = [json.dumps(list(gpu)) for gpu in jobs.gpu_dict]
            states = [json.dumps(state.value) for state in STATES]
            for lo in range(0, len(jobs), CHUNK_ROWS):
                rows = slice(lo, lo + CHUNK_ROWS)
                offsets = jobs.offsets[lo:lo + CHUNK_ROWS + 1].tolist()
                entries = [gpus[c] for c in jobs.gpu[offsets[0]:offsets[-1]].tolist()]
                first = offsets[0]
                allocations = [
                    "[" + ", ".join(entries[a - first:b - first]) + "]"
                    for a, b in zip(offsets, offsets[1:])
                ]
                handle.write("".join(_JOB_LINE % row for row in zip(
                    jobs.job_id[rows].tolist(),
                    [names[c] for c in jobs.name[rows].tolist()],
                    [users[c] for c in jobs.user[rows].tolist()],
                    _floats(jobs.submit[rows]),
                    _floats(jobs.start[rows]),
                    _floats(jobs.end[rows]),
                    jobs.n_gpus[rows].tolist(),
                    allocations,
                    [partitions[c] for c in jobs.partition[rows].tolist()],
                    ["true" if ml else "false" for ml in jobs.is_ml[rows].tolist()],
                    [states[c] for c in jobs.state[rows].tolist()],
                    jobs.exit_code[rows].tolist(),
                    ["null" if x == NO_XID else x for x in jobs.truth_xid[rows].tolist()],
                )))
            for event in self.node_events:
                handle.write(json.dumps(_event_to_dict(event)) + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "SlurmDatabase":
        """Read a file :meth:`save` wrote.

        Decodes ``CHUNK_ROWS`` lines per ``json.loads`` call and turns
        each chunk into columns before reading the next.  A line that is
        not a row of this format raises :class:`SlurmFileError`.
        """
        with obs.span("slurm.load") as span:
            reader = _Reader()
            with open(path, "rb") as handle:
                number = 1
                while True:
                    lines = list(islice(handle, CHUNK_ROWS))
                    if not lines:
                        break
                    try:
                        reader.absorb(_decode_chunk(lines))
                    except _ROW_ERRORS as error:
                        raise _first_bad_line(path, lines, number, error) from None
                    number += len(lines)
            database = cls(reader.jobs.build(), reader.events, window_seconds=reader.window)
            span.add("slurm.jobs", len(database))
        return database


#: What a malformed row raises while it is decoded or turned into columns.
_ROW_ERRORS = (ValueError, KeyError, TypeError, OverflowError)


def _decode_chunk(lines: List[bytes]) -> list:
    """The rows of ``lines``, with one ``json.loads`` call for them all."""
    rows = json.loads(b"[" + b",".join(lines) + b"]")
    if len(rows) != len(lines):
        raise ValueError("a line holds more than one row")
    return rows


def _first_bad_line(path, lines: List[bytes], number: int, error: Exception) -> SlurmFileError:
    """The error for the first line of a chunk that fails on its own."""
    for offset, line in enumerate(lines):
        try:
            _Reader().absorb([json.loads(line)])
        except _ROW_ERRORS as line_error:
            return SlurmFileError(str(path), number + offset, _describe(line_error))
    return SlurmFileError(str(path), number, _describe(error))


def _describe(error: Exception) -> str:
    if isinstance(error, KeyError):
        return f"missing field {error.args[0]!r}"
    if isinstance(error, json.JSONDecodeError):
        return f"not JSON: {error.msg}"
    return str(error) or type(error).__name__


class _Reader:
    """Turns decoded rows into the database's parts, one chunk at a time."""

    def __init__(self) -> None:
        self.window = 0.0
        self.events: List[NodeEvent] = []
        self.jobs = JobTableBuilder()

    def absorb(self, rows: list) -> None:
        jobs = []
        for row in rows:
            if not isinstance(row, dict):
                raise ValueError("not a JSON object")
            kind = row["kind"]
            if kind == "job":
                jobs.append(row)
            elif kind == "meta":
                self.window = row["window_seconds"]
            elif kind == "node_event":
                self.events.append(
                    NodeEvent(**{key: value for key, value in row.items() if key != "kind"})
                )
            else:  # unknown rows are an input error
                raise ValueError(f"unknown row kind {kind!r}")
        if not jobs:
            return

        def values(field: str) -> list:
            return _checked(field, list(map(itemgetter(field), jobs)))

        allocations = values("gpus")
        self.jobs.extend({
            "job_id": values("job_id"),
            "name": values("name"),
            "user": values("user"),
            "submit": values("submit_time"),
            "start": values("start_time"),
            "end": values("end_time"),
            "n_gpus": values("n_gpus"),
            "partition": values("partition"),
            "is_ml": values("is_ml"),
            "state": _state_codes(values("state")),
            "exit_code": values("exit_code"),
            "truth_xid": [NO_XID if xid is None else xid for xid in _checked(
                "truth_failed_by_xid", [row.get("truth_failed_by_xid") for row in jobs]
            )],
            "allocated": list(map(len, allocations)),
        }, [(node, bus) for allocation in allocations for node, bus in allocation])


def _checked(field: str, column: list) -> list:
    """``column``, once every value has a JSON type ``field`` may hold
    (numpy would read null as NaN or False, "1.5" as 1.5 and 1.7 as 1)."""
    wrong = set(map(type, column)) - _FIELD_TYPES[field]
    if wrong:
        raise ValueError(f"field {field!r} holds {_JSON_TYPE[min(wrong, key=str)]}")
    return column


def _state_codes(states: list) -> List[int]:
    codes = list(map(_STATE_CODE.get, states))
    if None in codes:
        raise ValueError(f"unknown job state {states[codes.index(None)]!r}")
    return codes


def _floats(column: np.ndarray) -> List[str]:
    """Each value as ``json.dumps`` writes a float."""
    text = list(map(float.__repr__, column.tolist()))
    if not np.isfinite(column).all():
        text = [_NONFINITE.get(value, value) for value in text]
    return text


def _event_to_dict(event: NodeEvent) -> Dict:
    return {
        "kind": "node_event",
        "node_id": event.node_id,
        "start_time": event.start_time,
        "duration_hours": event.duration_hours,
        "reason": event.reason,
    }
