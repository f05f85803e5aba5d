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
from typing import Dict, Iterable, List, Tuple

import numpy as np

from repro.core.parsing import RawXidRecord

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


GroupKey = Tuple[str, str, int, str]


def coalesce_errors(
    records: Iterable[RawXidRecord],
    config: CoalesceConfig | None = None,
) -> List[CoalescedError]:
    """Apply Algorithm 1 to raw records.

    Records are grouped by (node, PCI bus, XID, message) — "identical error
    logs from the same GPU" — sorted by time, and merged greedily: a record
    extends the current run if its gap to the run's latest record is within
    the window *and* the run's total span stays within the cut-off.

    Returns coalesced errors sorted by (time, node, bus, xid).
    """
    config = config or CoalesceConfig()
    groups: Dict[GroupKey, List[float]] = {}
    for record in records:
        key = (record.node_id, record.pci_bus, record.xid, record.message)
        groups.setdefault(key, []).append(record.time)

    out: List[CoalescedError] = []
    for (node_id, pci_bus, xid, message), times in groups.items():
        arr = np.sort(np.asarray(times))
        for start_idx, end_idx in _runs(arr, config):
            start = float(arr[start_idx])
            last = float(arr[end_idx])
            out.append(
                CoalescedError(
                    time=start,
                    node_id=node_id,
                    pci_bus=pci_bus,
                    xid=xid,
                    persistence=last - start,
                    n_raw=end_idx - start_idx + 1,
                    message=message,
                )
            )
    out.sort(key=lambda e: (e.time, e.node_id, e.pci_bus, e.xid))
    return out


def _runs(times: np.ndarray, config: CoalesceConfig) -> Iterable[Tuple[int, int]]:
    """Yield (start_index, end_index) of each coalesced run in sorted times.

    The gap rule is vectorized; the (rare) cut-off rule re-splits any run
    whose span exceeds the one-day bound.
    """
    if times.size == 0:
        return
    gaps = np.diff(times)
    break_points = np.nonzero(gaps > config.window_seconds)[0]
    starts = np.concatenate(([0], break_points + 1))
    ends = np.concatenate((break_points, [times.size - 1]))
    for start, end in zip(starts, ends):
        span = times[end] - times[start]
        if span <= config.max_persistence:
            yield int(start), int(end)
            continue
        # Greedy re-split at the cut-off, matching Algorithm 1's inner loop.
        run_start = int(start)
        for i in range(int(start) + 1, int(end) + 1):
            if times[i] - times[run_start] > config.max_persistence:
                yield run_start, i - 1
                run_start = i
        yield run_start, int(end)

