"""H100 early-deployment analysis (paper Section 6).

The GH200/H100 partition entered service later and runs at low utilization;
the paper reports per-code counts, an MTBE of 4,114 node-hours, the unusual
DBE/RRF-without-RRE pattern, and the dominance of the undocumented XID 136.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.core.mtbe import ErrorStatistics
from repro.faults.xid import Xid


@dataclass(frozen=True)
class H100Report:
    counts: Dict[int, int]
    mtbe_node_hours: float
    #: Section 6's anomaly: RRFs without preceding RREs.
    rre_count: int
    dbe_count: int
    rrf_count: int
    xid136_count: int
    xid136_share: float

    @property
    def has_remap_anomaly(self) -> bool:
        """DBE/RRF present while RREs are absent — the paper's "unusual"
        signature of exhausted remappable rows."""
        return (self.dbe_count > 0 or self.rrf_count > 0) and self.rre_count == 0


class H100Analyzer:
    """Summarize the Hopper partition's early error behaviour."""

    def __init__(self, stats: ErrorStatistics) -> None:
        self.stats = stats

    def report(self) -> H100Report:
        counts = self.stats.counts()
        total = self.stats.total_count or 1
        return H100Report(
            counts=counts,
            mtbe_node_hours=self.stats.overall_mtbe_node_hours(),
            rre_count=counts.get(int(Xid.RRE), 0),
            dbe_count=counts.get(int(Xid.DBE), 0),
            rrf_count=counts.get(int(Xid.RRF), 0),
            xid136_count=counts.get(int(Xid.XID_136), 0),
            xid136_share=counts.get(int(Xid.XID_136), 0) / total,
        )
