"""Error statistics: counts, MTBE, and the Table-1 view.

MTBE (mean time between errors) is reported two ways, as in the paper:

* **all-nodes** (system) hours: observation hours divided by error count;
* **per-node** hours: all-nodes MTBE multiplied by the node population
  (Table 1 footnote: 206 Ampere GPU nodes), i.e. the expected error-free
  operating time of a single node.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

from repro.core.coalesce import CoalescedError
from repro.faults.xid import HARDWARE_MTBE_XIDS, MEMORY_MTBE_XIDS, is_studied
from repro.util.stats import DurationSummary, summarize_durations
from repro.util.validation import check_positive


@dataclass(frozen=True)
class XidStatistics:
    """One Table-1 row as measured from the data."""

    xid: int
    count: int
    mtbe_all_nodes_hours: float
    mtbe_per_node_hours: float
    persistence: DurationSummary


class ErrorStatistics:
    """Counts and MTBE over a coalesced error set.

    ``window_hours`` is the observation span; ``n_nodes`` the population for
    per-node normalization.  User-induced codes (XID 13/43) are excluded
    from all statistics, mirroring the paper's filter, but their excluded
    count is kept for auditability.
    """

    def __init__(
        self,
        errors: Sequence[CoalescedError],
        window_hours: float,
        n_nodes: int,
    ) -> None:
        check_positive("window_hours", window_hours)
        check_positive("n_nodes", n_nodes)
        self.window_hours = window_hours
        self.n_nodes = n_nodes
        self.excluded_count = 0
        self.errors: List[CoalescedError] = []
        for error in errors:
            if not is_studied(error.xid):
                self.excluded_count += 1
                continue
            self.errors.append(error)
        self._by_xid: Dict[int, List[CoalescedError]] = {}
        for error in self.errors:
            self._by_xid.setdefault(error.xid, []).append(error)

    # ------------------------------------------------------------------

    @property
    def total_count(self) -> int:
        return len(self.errors)

    @property
    def window_node_hours(self) -> float:
        return self.window_hours * self.n_nodes

    def count(self, xid: int) -> int:
        return len(self._by_xid.get(int(xid), []))

    def counts(self) -> Dict[int, int]:
        return {xid: len(errs) for xid, errs in sorted(self._by_xid.items())}

    def mtbe_all_nodes_hours(self, xid: int | None = None) -> float:
        n = self.total_count if xid is None else self.count(xid)
        return self.window_hours / n if n else float("inf")

    def mtbe_per_node_hours(self, xid: int | None = None) -> float:
        return self.mtbe_all_nodes_hours(xid) * self.n_nodes

    def overall_mtbe_node_hours(self) -> float:
        """The paper's headline "67 node hours": per-node MTBE over all errors.

        Observation node-hours divided by total errors — the expected
        operating time of one node between (any) errors.
        """
        if not self.errors:
            return float("inf")
        return self.window_node_hours / self.total_count

    # ------------------------------------------------------------------

    def persistence_summary(self, xid: int) -> DurationSummary:
        return summarize_durations([e.persistence for e in self._by_xid.get(int(xid), [])])

    def combined_mtbe_per_node_hours(self, xids: Iterable[int]) -> float:
        total = sum(self.count(x) for x in xids)
        if total == 0:
            return float("inf")
        return self.window_node_hours / total

    def memory_vs_hardware_ratio(self) -> float:
        """The paper's "GPU memory is 30x more reliable" comparison.

        Memory side: DBE + RRE + RRF (uncontained errors excluded because
        >90% stem from a few defective GPUs — Section 4.2 (iii)).  Hardware
        side: GSP + PMU SPI + NVLink + Fallen-Off-the-Bus.
        """
        memory = self.combined_mtbe_per_node_hours(int(x) for x in MEMORY_MTBE_XIDS)
        hardware = self.combined_mtbe_per_node_hours(int(x) for x in HARDWARE_MTBE_XIDS)
        if not np.isfinite(memory) or not np.isfinite(hardware) or hardware == 0:
            return float("nan")
        return memory / hardware

    # ------------------------------------------------------------------

    def per_gpu_counts(self, xid: int | None = None) -> Dict[Tuple[str, str], int]:
        """Error counts per GPU (outlier/offender identification)."""
        out: Dict[Tuple[str, str], int] = {}
        source = self.errors if xid is None else self._by_xid.get(int(xid), [])
        for error in source:
            out[error.gpu_key] = out.get(error.gpu_key, 0) + 1
        return out

    def top_offenders(self, xid: int, k: int = 1) -> List[Tuple[Tuple[str, str], int]]:
        counts = self.per_gpu_counts(xid)
        return sorted(counts.items(), key=lambda kv: kv[1], reverse=True)[:k]

    # ------------------------------------------------------------------

    def table1_rows(self) -> List[XidStatistics]:
        """The measured Table 1, one row per observed XID, sorted by code."""
        rows = []
        for xid in sorted(self._by_xid):
            rows.append(
                XidStatistics(
                    xid=xid,
                    count=self.count(xid),
                    mtbe_all_nodes_hours=self.mtbe_all_nodes_hours(xid),
                    mtbe_per_node_hours=self.mtbe_per_node_hours(xid),
                    persistence=self.persistence_summary(xid),
                )
            )
        return rows

    def restricted(
        self,
        *,
        exclude_gpus: Iterable[Tuple[str, str]] = (),
        exclude_xids: Iterable[int] = (),
    ) -> "ErrorStatistics":
        """A copy with given GPUs and/or codes removed (counterfactuals)."""
        gpus = set(exclude_gpus)
        xids = {int(x) for x in exclude_xids}
        kept = [
            e for e in self.errors if e.gpu_key not in gpus and e.xid not in xids
        ]
        return ErrorStatistics(kept, self.window_hours, self.n_nodes)
