"""Node availability analysis (paper Section 5.4, Figure 9c).

Availability is estimated as ``MTTF / (MTTF + MTTR)`` where the node MTTF is
derived from the overall error MTBE (the paper conservatively assumes every
GPU error interrupts its node) and the MTTR is the mean node-unavailability
duration from the drain/reboot events recorded in the scheduler database.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence

import numpy as np

from repro.core.mtbe import ErrorStatistics
from repro.slurm.accounting import NodeEvent

#: Percentiles of the repair-time distribution that Figure 9c reports.
UNAVAILABILITY_PERCENTILES = (50, 90, 95, 99)


@dataclass(frozen=True)
class AvailabilityReport:
    mttf_hours: float
    mttr_hours: float
    availability: float
    total_downtime_node_hours: float
    n_incidents: int

    @property
    def downtime_minutes_per_day(self) -> float:
        return (1.0 - self.availability) * 24.0 * 60.0


class AvailabilityAnalyzer:
    """Availability and repair-time distribution from node events."""

    def __init__(
        self,
        node_events: Sequence[NodeEvent],
        error_statistics: ErrorStatistics,
    ) -> None:
        self.node_events = list(node_events)
        self.stats = error_statistics
        self._durations = np.array([e.duration_hours for e in self.node_events])

    # ------------------------------------------------------------------

    def mttf_hours(self) -> float:
        """Node MTTF: per-node error MTBE, conservatively treating every
        error as a node interruption (paper footnote 10)."""
        return self.stats.overall_mtbe_node_hours()

    def mttr_hours(self) -> float:
        if self._durations.size == 0:
            return 0.0
        return float(self._durations.mean())

    def availability(self) -> float:
        mttf = self.mttf_hours()
        mttr = self.mttr_hours()
        if not np.isfinite(mttf):
            return 1.0
        return mttf / (mttf + mttr)

    def report(self) -> AvailabilityReport:
        return AvailabilityReport(
            mttf_hours=self.mttf_hours(),
            mttr_hours=self.mttr_hours(),
            availability=self.availability(),
            total_downtime_node_hours=float(self._durations.sum()),
            n_incidents=len(self.node_events),
        )

    # ------------------------------------------------------------------
    # Figure 9c
    # ------------------------------------------------------------------

    def unavailability_distribution(self) -> Dict[str, float]:
        """Summary of the node-unavailability duration distribution."""
        if self._durations.size == 0:
            return {"mean_hours": 0.0, "max_hours": 0.0} | {
                f"p{p}_hours": 0.0 for p in UNAVAILABILITY_PERCENTILES
            }
        out = {
            "mean_hours": float(self._durations.mean()),
            "max_hours": float(self._durations.max()),
        }
        for p in UNAVAILABILITY_PERCENTILES:
            out[f"p{p}_hours"] = float(np.percentile(self._durations, p))
        return out
