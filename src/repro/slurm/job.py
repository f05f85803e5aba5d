"""Job records: the unit the paper's job-impact analysis works on.

A schedule, a coupling and an accounting database hold their jobs as one
columnar :class:`JobTable`.  :class:`JobRecord` is its row view, for code
that reads one job at a time.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

GpuKey = Tuple[str, str]


class JobState(enum.Enum):
    """Slurm-style terminal job states."""

    COMPLETED = "COMPLETED"
    FAILED = "FAILED"
    TIMEOUT = "TIMEOUT"
    OUT_OF_MEMORY = "OUT_OF_MEMORY"
    NODE_FAIL = "NODE_FAIL"
    CANCELLED = "CANCELLED"


#: A job table's ``state`` column holds indices into this tuple.
STATES: Tuple[JobState, ...] = tuple(JobState)
STATE_CODE: Dict[JobState, int] = {state: code for code, state in enumerate(STATES)}
#: ``truth_xid`` of a job no GPU error killed.
NO_XID = -1


class ExitCode(enum.IntEnum):
    """Exit codes used by the substrate (subset of what Delta logs show)."""

    OK = 0
    GENERIC = 1
    USER_ERROR = 2
    KILLED = 137
    SEGFAULT = 139  # the paper's Incident 1 ends in EXITSTATUS 139


@dataclass(frozen=True)
class JobSpec:
    """A job as submitted: everything known before scheduling."""

    job_id: int
    name: str
    user: str
    submit_time: float
    requested_gpus: int
    duration: float  # requested/natural runtime in seconds
    partition: str  # "a40" | "a100" | "h100"
    is_ml: bool
    #: Pre-drawn non-GPU fate: jobs fail for user/system reasons at the
    #: paper's ~25% background rate independent of GPU errors.
    natural_state: JobState = JobState.COMPLETED
    natural_exit_code: int = 0
    #: Number of MMU errors this (buggy) job will emit while running.
    mmu_emissions: int = 0
    #: User-induced XID 13 / 43 emissions (excluded by the pipeline).
    xid13_emissions: int = 0
    xid43_emissions: int = 0


@dataclass
class JobRecord:
    """A job as accounted after execution (a row of the Slurm database)."""

    job_id: int
    name: str
    user: str
    submit_time: float
    start_time: float
    end_time: float
    n_gpus: int
    gpus: Tuple[GpuKey, ...]
    partition: str
    is_ml: bool
    state: JobState = JobState.COMPLETED
    exit_code: int = 0
    #: Generation-side truth (never read by the pipeline): the XID that
    #: killed the job, if any.  Lets tests audit the pipeline's attribution.
    truth_failed_by_xid: Optional[int] = None

    @property
    def elapsed(self) -> float:
        return max(0.0, self.end_time - self.start_time)

    @property
    def elapsed_minutes(self) -> float:
        return self.elapsed / 60.0

    @property
    def nodes(self) -> Tuple[str, ...]:
        return tuple(sorted({node for node, _ in self.gpus}))

    @property
    def gpu_hours(self) -> float:
        return self.elapsed / 3600.0 * self.n_gpus

    @property
    def node_hours(self) -> float:
        return self.elapsed / 3600.0 * len(self.nodes)

    @property
    def succeeded(self) -> bool:
        return self.state is JobState.COMPLETED and self.exit_code == 0


@dataclass(eq=False)
class JobTable:
    """Slurm accounting as columns: one row per job.

    ``job_id``, ``n_gpus``, ``exit_code`` and ``truth_xid`` (``NO_XID`` for
    none) are int64; ``submit``, ``start`` and ``end`` float64; ``state``
    int8 codes into ``STATES``; ``is_ml`` the submitted flag.  ``name``,
    ``user`` and ``partition`` are int32 codes into ``name_dict``,
    ``user_dict`` and ``partition_dict``.  Job ``i``'s GPUs, in allocation
    order, are ``gpu[offsets[i]:offsets[i + 1]]``: int32 codes into
    ``gpu_dict``, a list of distinct ``(node, bus)`` keys.  Dictionaries may
    hold entries no row uses.

    A table is not changed once built; a new table replaces columns.
    Indexing or iterating yields :class:`JobRecord` rows.
    """

    job_id: np.ndarray
    submit: np.ndarray
    start: np.ndarray
    end: np.ndarray
    n_gpus: np.ndarray
    exit_code: np.ndarray
    state: np.ndarray
    is_ml: np.ndarray
    truth_xid: np.ndarray
    name: np.ndarray
    user: np.ndarray
    partition: np.ndarray
    offsets: np.ndarray
    gpu: np.ndarray
    name_dict: List[str]
    user_dict: List[str]
    partition_dict: List[str]
    gpu_dict: List[GpuKey]

    @classmethod
    def from_records(cls, records: Iterable[JobRecord]) -> "JobTable":
        """Gather rows into one table (codes in first-seen order)."""
        builder = JobTableBuilder()
        for r in records:
            builder.append(
                r.job_id, r.name, r.user, r.submit_time, r.start_time, r.end_time,
                r.n_gpus, r.partition, r.is_ml, r.state, r.exit_code,
                NO_XID if r.truth_failed_by_xid is None else r.truth_failed_by_xid,
                r.gpus,
            )
        return builder.build()

    def __len__(self) -> int:
        return len(self.job_id)

    # -- derived columns ---------------------------------------------------

    @cached_property
    def elapsed(self) -> np.ndarray:
        """Runtime in seconds, ``max(0.0, end - start)`` per job."""
        runtime = self.end - self.start
        return np.where(runtime > 0.0, runtime, 0.0)

    @cached_property
    def succeeded(self) -> np.ndarray:
        return (self.state == STATE_CODE[JobState.COMPLETED]) & (self.exit_code == 0)

    @cached_property
    def alloc_job(self) -> np.ndarray:
        """The row each ``gpu`` entry belongs to."""
        return np.repeat(np.arange(len(self), dtype=np.int64), np.diff(self.offsets))

    @cached_property
    def n_nodes(self) -> np.ndarray:
        """Distinct nodes per job."""
        nodes: Dict[str, int] = {}
        node_of = np.array(
            [nodes.setdefault(node, len(nodes)) for node, _ in self.gpu_dict],
            dtype=np.int64,
        )
        if not len(self.gpu):
            return np.zeros(len(self), dtype=np.int64)
        pairs = np.unique(self.alloc_job * len(nodes) + node_of[self.gpu])
        return np.bincount(pairs // len(nodes), minlength=len(self))

    # -- rows ----------------------------------------------------------------

    def take(self, rows: np.ndarray) -> "JobTable":
        """The jobs at ``rows`` (an index array); same dictionaries."""
        counts = np.diff(self.offsets)[rows]
        offsets = np.zeros(len(counts) + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        entries = np.repeat(self.offsets[:-1][rows] - offsets[:-1], counts)
        entries += np.arange(offsets[-1], dtype=np.int64)
        return replace(
            self, offsets=offsets, gpu=self.gpu[entries],
            **{name: getattr(self, name)[rows] for name in _ROW_COLUMNS},
        )

    def failed(self, rows: Sequence[int], times: Sequence[float],
               xids: Sequence[int], states: Sequence[JobState],
               exit_codes: Sequence[int]) -> "JobTable":
        """A copy with the jobs at ``rows`` terminated early by GPU errors:
        each ends at its time clamped into its own lifetime, with its state,
        exit code and killing XID."""
        rows = np.asarray(rows, dtype=np.int64)
        end = self.end.copy()
        end[rows] = np.minimum(np.maximum(times, self.start[rows]), self.end[rows])
        state = self.state.copy()
        state[rows] = [STATE_CODE[s] for s in states]
        exit_code = self.exit_code.copy()
        exit_code[rows] = exit_codes
        truth = self.truth_xid.copy()
        truth[rows] = xids
        return replace(self, end=end, state=state, exit_code=exit_code, truth_xid=truth)

    def __getitem__(self, row: int) -> JobRecord:
        if row < 0:
            row += len(self)
        lo, hi = int(self.offsets[row]), int(self.offsets[row + 1])
        truth = int(self.truth_xid[row])
        return JobRecord(
            job_id=int(self.job_id[row]),
            name=self.name_dict[self.name[row]],
            user=self.user_dict[self.user[row]],
            submit_time=float(self.submit[row]),
            start_time=float(self.start[row]),
            end_time=float(self.end[row]),
            n_gpus=int(self.n_gpus[row]),
            gpus=tuple(self.gpu_dict[code] for code in self.gpu[lo:hi].tolist()),
            partition=self.partition_dict[self.partition[row]],
            is_ml=bool(self.is_ml[row]),
            state=STATES[self.state[row]],
            exit_code=int(self.exit_code[row]),
            truth_failed_by_xid=None if truth == NO_XID else truth,
        )

    def __iter__(self) -> Iterator[JobRecord]:
        for row in range(len(self)):
            yield self[row]

    def __repr__(self) -> str:
        return f"JobTable({len(self)} jobs)"


class JobTableBuilder:
    """Gathers jobs into a :class:`JobTable`, ``CHUNK_ROWS`` at a time: a
    chunk's values become numpy columns and vocabulary codes before the
    next chunk starts, so no Python object per job outlives its chunk."""

    def __init__(self) -> None:
        self._pending: Dict[str, list] = {name: [] for name in _PENDING}
        self._columns = tuple(self._pending.values())
        self._gpus: List[GpuKey] = []
        self._chunks: List[Dict[str, np.ndarray]] = []
        self._dicts: Dict[str, Dict[str, int]] = {name: {} for name in _CODED}
        self._gpu_index: Dict[GpuKey, int] = {}

    def append(
        self, job_id: int, name: str, user: str, submit: float, start: float,
        end: float, n_gpus: int, partition: str, is_ml: bool, state: JobState,
        exit_code: int, truth_xid: int, gpus: Sequence[GpuKey],
    ) -> None:
        """One job (``truth_xid`` is ``NO_XID`` for none)."""
        before = len(self._gpus)
        self._gpus.extend(gpus)
        for column, value in zip(self._columns, (
            job_id, submit, start, end, n_gpus, exit_code, STATE_CODE[state], is_ml,
            truth_xid, len(self._gpus) - before, name, user, partition,
        )):
            column.append(value)
        if len(self._columns[0]) >= CHUNK_ROWS:
            self._flush()

    def extend(self, columns: Dict[str, list], gpus: List[GpuKey]) -> None:
        """Many jobs as one list per column: those of :meth:`append`, with
        ``state`` as codes into ``STATES`` and ``allocated`` the number of
        each job's entries in ``gpus``."""
        for name, values in columns.items():
            self._pending[name].extend(values)
        self._gpus.extend(gpus)
        self._flush()

    def _flush(self) -> None:
        """Turn the pending jobs into one chunk of columns."""
        pending = self._pending
        if not pending["job_id"]:
            return
        chunk = {name: np.array(pending[name], dtype=dtype) for name, dtype in _TYPES.items()}
        for name, index in self._dicts.items():
            chunk[name] = _codes(index, pending[name])
        chunk["gpu"] = _codes(self._gpu_index, self._gpus)
        self._chunks.append(chunk)
        for column in self._columns:
            column.clear()
        self._gpus.clear()

    def build(self) -> JobTable:
        self._flush()
        columns = {
            name: np.concatenate([chunk[name] for chunk in self._chunks])
            if self._chunks else np.zeros(0, dtype=dtype)
            for name, dtype in (*_TYPES.items(), *((name, np.int32) for name in _CODED),
                                ("gpu", np.int32))
        }
        allocated = columns.pop("allocated")
        offsets = np.zeros(len(allocated) + 1, dtype=np.int64)
        np.cumsum(allocated, out=offsets[1:])
        return JobTable(
            **columns, offsets=offsets,
            name_dict=list(self._dicts["name"]), user_dict=list(self._dicts["user"]),
            partition_dict=list(self._dicts["partition"]), gpu_dict=list(self._gpu_index),
        )


#: Jobs a builder holds as Python values before it turns them into arrays.
CHUNK_ROWS = 1024
#: A builder's numeric columns and their dtypes, in :meth:`JobTableBuilder.append`'s
#: order; ``allocated`` counts each job's GPUs.
_TYPES = {
    "job_id": np.int64, "submit": np.float64, "start": np.float64, "end": np.float64,
    "n_gpus": np.int64, "exit_code": np.int64, "state": np.int8, "is_ml": bool,
    "truth_xid": np.int64, "allocated": np.int64,
}
#: Columns a builder codes into vocabularies.
_CODED = ("name", "user", "partition")
_PENDING = (*_TYPES, *_CODED)
#: A table's columns with one value per job.
_ROW_COLUMNS = (*(name for name in _TYPES if name != "allocated"), *_CODED)


def _codes(index: Dict, values: list) -> np.ndarray:
    """Each value's code in ``index``; a value not yet in it first takes
    the next code."""
    for value in dict.fromkeys(values):
        index.setdefault(value, len(index))
    return np.array(list(map(index.__getitem__, values)), dtype=np.int32)
