"""Counterfactual resilience analysis (paper Section 5.5).

Two what-if scenarios over the measured error set:

1. **Remove top-offending GPUs** per error code (comprehensive burn-in
   testing and monitoring would have culled the defective parts): the paper
   reports MTBE improving 67 -> 190 node-hours (3x).
2. **Additionally remove GSP, PMU SPI, and NVLink errors** (more resilient
   peripheral hardware): a further 16% improvement to 223 node-hours.

The improved MTBE feeds back into the availability estimate
(99.5% -> 99.9%) and, through :mod:`repro.core.overprovision`, into the 4x
overprovisioning reduction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.core.mtbe import ErrorStatistics
from repro.faults.xid import Xid


@dataclass(frozen=True)
class CounterfactualReport:
    baseline_mtbe_node_hours: float
    without_offenders_mtbe_node_hours: float
    without_offenders_and_hw_mtbe_node_hours: float
    removed_gpus: Tuple[Tuple[str, str], ...]
    mttr_hours: float

    @property
    def offender_improvement(self) -> float:
        return self.without_offenders_mtbe_node_hours / self.baseline_mtbe_node_hours

    @property
    def hardware_additional_improvement(self) -> float:
        return (
            self.without_offenders_and_hw_mtbe_node_hours
            / self.without_offenders_mtbe_node_hours
        )

    def availability(self, mtbe_node_hours: float | None = None) -> float:
        mttf = (
            mtbe_node_hours
            if mtbe_node_hours is not None
            else self.without_offenders_and_hw_mtbe_node_hours
        )
        return mttf / (mttf + self.mttr_hours)

    @property
    def baseline_availability(self) -> float:
        return self.availability(self.baseline_mtbe_node_hours)

    @property
    def improved_availability(self) -> float:
        return self.availability()


#: Peripheral-hardware codes excluded in the second scenario.
HARDWARE_EXCLUSION = (Xid.GSP, Xid.PMU_SPI, Xid.NVLINK)

#: Top offenders per code: GPUs above this share of the code's errors, at
#: most this many per code (see :meth:`CounterfactualAnalyzer.offender_gpus`).
OFFENDER_SHARE_THRESHOLD = 0.02
MAX_OFFENDERS_PER_XID = 8


class CounterfactualAnalyzer:
    """What-if MTBE/availability under offender and hardware exclusions."""

    def __init__(self, stats: ErrorStatistics, mttr_hours: float) -> None:
        self.stats = stats
        self.mttr_hours = mttr_hours

    # ------------------------------------------------------------------

    def offender_gpus(self) -> List[Tuple[str, str]]:
        """GPUs contributing an outsized share of any single code's errors.

        For each code, GPUs are taken in decreasing contribution order while
        each still holds more than ``OFFENDER_SHARE_THRESHOLD`` of that
        code's total, up to ``MAX_OFFENDERS_PER_XID`` — the paper's
        "top-offending GPUs for each GPU error".
        """
        offenders: List[Tuple[str, str]] = []
        for xid in self.stats.counts():
            total = self.stats.count(xid)
            if total == 0:
                continue
            for gpu, count in self.stats.top_offenders(xid, MAX_OFFENDERS_PER_XID):
                if count / total > OFFENDER_SHARE_THRESHOLD and count > 1:
                    offenders.append(gpu)
        return sorted(set(offenders))

    def analyze(self) -> CounterfactualReport:
        baseline = self.stats.overall_mtbe_node_hours()
        offenders = self.offender_gpus()
        without_offenders = self.stats.restricted(exclude_gpus=offenders)
        scenario1 = without_offenders.overall_mtbe_node_hours()
        without_hw = without_offenders.restricted(
            exclude_xids=[int(x) for x in HARDWARE_EXCLUSION]
        )
        scenario2 = without_hw.overall_mtbe_node_hours()
        return CounterfactualReport(
            baseline_mtbe_node_hours=baseline,
            without_offenders_mtbe_node_hours=scenario1,
            without_offenders_and_hw_mtbe_node_hours=scenario2,
            removed_gpus=tuple(offenders),
            mttr_hours=self.mttr_hours,
        )
