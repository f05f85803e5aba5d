"""Cross-generation resilience comparison.

The paper positions Delta against the pre-Ampere systems of the prior
literature — Blue Waters (Kepler, [9]), Titan (K20X, [52, 53]), Summit
(V100, [36]) — and argues the Ampere recovery mechanisms changed the DBE
story: "this is not achievable on previous generation GPUs ... as a DBE
immediately causes user job interruption and GPU failure".

:class:`GenerationComparison` encodes the published prior-generation
behaviour as constants and lines our measured Ampere/Hopper results up
against them, producing the generational table the paper's Section 7
narrates in prose.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.core.mtbe import ErrorStatistics
from repro.core.propagation import PropagationAnalyzer
from repro.faults.xid import Xid


@dataclass(frozen=True)
class GenerationProfile:
    """Published resilience characteristics of one GPU generation."""

    name: str
    system: str
    #: P(job interruption | DBE): 1.0 before containment existed.
    dbe_job_interruption_prob: float
    #: Whether the part can remap rows without replacement.
    has_row_remapping: bool
    has_error_containment: bool
    has_gsp: bool
    #: Page-retirement budget (64 pre-Ampere, 512 row remaps after).
    retirement_budget: int
    note: str = ""


#: Literature constants (paper citations [9], [36], [52], [53]).
PRIOR_GENERATIONS: Dict[str, GenerationProfile] = {
    "kepler": GenerationProfile(
        name="Kepler K20X",
        system="Blue Waters / Titan",
        dbe_job_interruption_prob=1.0,
        has_row_remapping=False,
        has_error_containment=False,
        has_gsp=False,
        retirement_budget=64,
        note="DBE => immediate job interruption + GPU reset (paper Sec. 4.4.3)",
    ),
    "volta": GenerationProfile(
        name="Volta V100",
        system="Summit",
        dbe_job_interruption_prob=1.0,
        has_row_remapping=False,
        has_error_containment=False,
        has_gsp=False,
        retirement_budget=64,
        note="page retirement only; no dynamic containment",
    ),
}


@dataclass(frozen=True)
class GenerationRow:
    name: str
    system: str
    dbe_job_interruption_prob: float
    has_row_remapping: bool
    has_error_containment: bool
    has_gsp: bool
    retirement_budget: int
    measured: bool
    note: str = ""


class GenerationComparison:
    """Line measured Ampere results up against the prior-generation record."""

    def __init__(
        self,
        stats: ErrorStatistics,
        propagation: PropagationAnalyzer,
    ) -> None:
        self.stats = stats
        self.propagation = propagation

    def measured_dbe_interruption_prob(self) -> float:
        """1 - (measured DBE alleviation): the Ampere counterpart of the
        pre-Ampere certainty of interruption."""
        paths = self.propagation.memory_recovery_paths()
        return max(0.0, 1.0 - paths["dbe_alleviated"])

    def rows(self) -> List[GenerationRow]:
        out = [
            GenerationRow(
                name=profile.name,
                system=profile.system,
                dbe_job_interruption_prob=profile.dbe_job_interruption_prob,
                has_row_remapping=profile.has_row_remapping,
                has_error_containment=profile.has_error_containment,
                has_gsp=profile.has_gsp,
                retirement_budget=profile.retirement_budget,
                measured=False,
                note=profile.note,
            )
            for profile in PRIOR_GENERATIONS.values()
        ]
        out.append(
            GenerationRow(
                name="Ampere A100/A40",
                system="Delta (this reproduction)",
                dbe_job_interruption_prob=self.measured_dbe_interruption_prob(),
                has_row_remapping=True,
                has_error_containment=True,
                has_gsp=True,
                retirement_budget=512,
                measured=True,
                note="row remapping + containment alleviate ~70% of DBEs; "
                "GSP is the new single point of failure",
            )
        )
        return out

    def new_failure_modes(self) -> List[str]:
        """What Ampere *added* to the threat model (the paper's flip side)."""
        modes = []
        if self.stats.count(int(Xid.GSP)) > 0:
            modes.append("GSP RPC timeouts (XID 119): new single point of failure")
        if self.stats.count(int(Xid.UNCONTAINED)) > 0:
            modes.append(
                "uncontained memory errors (XID 95): containment failures are "
                "bursty and persistent"
            )
        if self.stats.count(int(Xid.PMU_SPI)) > 0:
            modes.append("PMU SPI communication failures (XID 122) cascading to MMU")
        return modes
