"""Stage II: error coalescing and persistence analysis (paper Algorithm 1).

Raw XID records arrive in bursts: the driver re-logs the same message every
few seconds while an error condition persists.  Algorithm 1 merges identical
messages from the same GPU whose inter-arrival gaps stay within a window
``dt`` (default 5 s) into a single *coalesced error* whose *persistence* is
the span from the first to the last merged line.  A one-day cut-off bounds
any single error's persistence, as in the paper (Section 3.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.core.parsing import XidBatch

#: Paper defaults: 5-second window (results insensitive in 5-20 s) and a
#: one-day persistence cut-off.
DEFAULT_WINDOW_SECONDS = 5.0
DEFAULT_MAX_PERSISTENCE = 86_400.0


@dataclass(frozen=True)
class CoalesceConfig:
    window_seconds: float = DEFAULT_WINDOW_SECONDS
    max_persistence: float = DEFAULT_MAX_PERSISTENCE

    def __post_init__(self) -> None:
        if self.window_seconds <= 0:
            raise ValueError("coalescing window must be positive")
        if self.max_persistence <= 0:
            raise ValueError("persistence cut-off must be positive")


@dataclass(frozen=True)
class CoalescedError:
    """One coalesced error with its measured persistence."""

    time: float  # first occurrence
    node_id: str
    pci_bus: str
    xid: int
    persistence: float  # t_last - t_first over the merged run
    n_raw: int  # raw lines merged into this error
    message: str = ""

    @property
    def gpu_key(self) -> Tuple[str, str]:
        return (self.node_id, self.pci_bus)

    @property
    def end_time(self) -> float:
        return self.time + self.persistence


def coalesce_errors(
    batch: XidBatch, config: CoalesceConfig | None = None
) -> List[CoalescedError]:
    """Apply Algorithm 1 to a batch of raw records.

    Records are grouped by (node, PCI bus, XID, message) — "identical error
    logs from the same GPU" — sorted by time, and merged greedily: a record
    extends the current run if its gap to the run's latest record is within
    the window *and* the run's total span stays within the cut-off.

    Returns coalesced errors sorted by (time, node, bus, xid); errors tied
    on all four keep the order in which their groups first appear in the
    input.
    """
    config = config or CoalesceConfig()
    if len(batch) == 0:
        return []
    group_columns = (batch.node, batch.pci, batch.xid, batch.msg)
    order = np.lexsort((batch.time,) + group_columns[::-1])  # by group, then time
    times = batch.time[order]
    new_group = np.zeros(len(order) - 1, dtype=bool)
    for column in group_columns:
        column = column[order]
        new_group |= column[1:] != column[:-1]
    group_starts = np.flatnonzero(np.concatenate(([True], new_group)))
    is_break = (times[1:] - times[:-1]) > config.window_seconds
    is_break[group_starts[1:] - 1] = True
    breaks = np.flatnonzero(is_break)
    starts = np.concatenate(([0], breaks + 1))
    ends = np.concatenate((breaks, [len(times) - 1]))
    over = ~(times[ends] - times[starts] <= config.max_persistence)
    if over.any():
        starts, ends = _split_at_cutoff(times, starts, ends, over, config)

    # Errors tied on (time, node, bus, xid) come from different groups;
    # they keep the order of each group's first row in the input.
    first_row = np.minimum.reduceat(order, group_starts)
    group_of_run = np.searchsorted(group_starts, starts, side="right") - 1
    runs = batch.take(order[starts])
    first, last = times[starts], times[ends]
    by_key = np.lexsort((
        first_row[group_of_run], runs.xid, runs.rank("pci"), runs.rank("node"), first,
    ))
    return [
        CoalescedError(
            time=time,
            node_id=runs.node_dict[node],
            pci_bus=runs.pci_dict[pci],
            xid=xid,
            persistence=persistence,
            n_raw=n_raw,
            message=runs.msg_dict[msg],
        )
        for time, node, pci, xid, persistence, n_raw, msg in zip(
            first[by_key].tolist(), runs.node[by_key].tolist(),
            runs.pci[by_key].tolist(), runs.xid[by_key].tolist(),
            (last - first)[by_key].tolist(), (ends - starts + 1)[by_key].tolist(),
            runs.msg[by_key].tolist(),
        )
    ]


def _split_at_cutoff(times, starts, ends, over, config):
    """Re-split every run whose span exceeds the one-day cut-off, greedily,
    as Algorithm 1's inner loop does; other runs pass through."""
    new_starts: List[int] = []
    new_ends: List[int] = []
    for start, end, long in zip(starts.tolist(), ends.tolist(), over.tolist()):
        if long:
            span = times[start:end + 1].tolist()
            run_start = start
            for i in range(start + 1, end + 1):
                if span[i - start] - span[run_start - start] > config.max_persistence:
                    new_starts.append(run_start)
                    new_ends.append(i - 1)
                    run_start = i
            start = run_start
        new_starts.append(start)
        new_ends.append(end)
    return np.array(new_starts, dtype=np.int64), np.array(new_ends, dtype=np.int64)
