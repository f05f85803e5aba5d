"""NVIDIA XID error catalog.

XIDs are the NVIDIA driver's error codes, logged to the kernel ring buffer as
``NVRM: Xid`` lines.  This module encodes the subset the paper characterizes
(its Table 1) plus the two user-induced codes the paper explicitly *excludes*
(XID 13 and 43, which the workload substrate still emits so that the
pipeline's exclusion filter is exercised) and the undocumented XID 136 that
dominates the H100 early-deployment data (paper Section 6).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Tuple


class Xid(enum.IntEnum):
    """XID codes used in the study."""

    GENERAL_SW = 13  # general GPU software error (user-induced; excluded)
    MMU = 31  # memory management unit error
    RESET_CHANNEL = 43  # reset channel verification error (user-induced; excluded)
    DBE = 48  # double-bit ECC error
    RRE = 63  # row remapping event
    RRF = 64  # row remapping failure
    NVLINK = 74  # NVLink interconnect error
    FALLEN_OFF_BUS = 79  # GPU fallen off the bus
    CONTAINED = 94  # contained uncorrectable memory error
    UNCONTAINED = 95  # uncontained uncorrectable memory error
    GSP = 119  # GPU System Processor RPC timeout
    PMU_SPI = 122  # PMU SPI RPC read failure
    XID_136 = 136  # undocumented; most frequent H100 event in Section 6


class XidCategory(enum.Enum):
    """Paper Section 2.2 error taxonomy."""

    HARDWARE = "hardware"
    MEMORY = "memory"
    INTERCONNECT = "interconnect"
    USER = "user"  # user-induced software errors excluded from the study
    UNKNOWN = "unknown"  # e.g. XID 136, undescribed in NVIDIA's manual


class RecoveryAction(enum.Enum):
    """Coarse recovery requirement per Table 1's "Recovery Action" column."""

    NONE = "none"
    GPU_RESET = "gpu_reset"
    NODE_REBOOT = "node_reboot"
    SRE_INTERVENTION = "sre_intervention"
    NOT_SPECIFIED = "not_specified"


@dataclass(frozen=True)
class XidInfo:
    """Static metadata for one XID code."""

    xid: Xid
    abbreviation: str
    category: XidCategory
    description: str
    recovery: RecoveryAction
    #: Whether the paper's pipeline includes this code in the characterization.
    studied: bool = True
    #: Whether the error typically leaves the GPU in an error state needing reset.
    renders_gpu_inoperable: bool = False


XID_CATALOG: Dict[Xid, XidInfo] = {
    info.xid: info
    for info in (
        XidInfo(
            Xid.GENERAL_SW,
            "GeneralSW",
            XidCategory.USER,
            "General GPU software error, usually caused by user jobs.",
            RecoveryAction.NONE,
            studied=False,
        ),
        XidInfo(
            Xid.MMU,
            "MMU Err.",
            XidCategory.HARDWARE,
            "GPU memory management unit (MMU) error.",
            RecoveryAction.NONE,
        ),
        XidInfo(
            Xid.RESET_CHANNEL,
            "ResetChan",
            XidCategory.USER,
            "Reset channel verification error, usually caused by user jobs.",
            RecoveryAction.NONE,
            studied=False,
        ),
        XidInfo(
            Xid.DBE,
            "DBE",
            XidCategory.MEMORY,
            "Double-bit ECC memory error; triggers row remapping.",
            RecoveryAction.GPU_RESET,
        ),
        XidInfo(
            Xid.RRE,
            "RRE",
            XidCategory.MEMORY,
            "Row remapping event (1 DBE or 2 SBEs at the same address).",
            RecoveryAction.GPU_RESET,
        ),
        XidInfo(
            Xid.RRF,
            "RRF",
            XidCategory.MEMORY,
            "Row remapping failure: spare rows exhausted.",
            RecoveryAction.GPU_RESET,
        ),
        XidInfo(
            Xid.NVLINK,
            "NVL Err.",
            XidCategory.INTERCONNECT,
            "NVLink error between GPUs on the same node.",
            RecoveryAction.SRE_INTERVENTION,
        ),
        XidInfo(
            Xid.FALLEN_OFF_BUS,
            "Fallen Off Bus",
            XidCategory.HARDWARE,
            "GPU unreachable over the PCI-E/SXM system bus.",
            RecoveryAction.SRE_INTERVENTION,
            renders_gpu_inoperable=True,
        ),
        XidInfo(
            Xid.CONTAINED,
            "Contained ECC",
            XidCategory.MEMORY,
            "Successful uncorrectable-memory-error containment.",
            RecoveryAction.NOT_SPECIFIED,
        ),
        XidInfo(
            Xid.UNCONTAINED,
            "Uncontained ECC",
            XidCategory.MEMORY,
            "Unsuccessful uncorrectable-memory-error containment.",
            RecoveryAction.SRE_INTERVENTION,
            renders_gpu_inoperable=True,
        ),
        XidInfo(
            Xid.GSP,
            "GSP RPC Timeout",
            XidCategory.HARDWARE,
            "GPU System Processor failed to answer a driver RPC.",
            RecoveryAction.NODE_REBOOT,
            renders_gpu_inoperable=True,
        ),
        XidInfo(
            Xid.PMU_SPI,
            "SPI PMU RPC failure",
            XidCategory.HARDWARE,
            "Failed communication with the Power Management Unit over SPI.",
            RecoveryAction.NOT_SPECIFIED,
        ),
        XidInfo(
            Xid.XID_136,
            "XID 136",
            XidCategory.UNKNOWN,
            "Undocumented H100 event; cause and impact unknown (paper Sec. 6).",
            RecoveryAction.NOT_SPECIFIED,
        ),
    )
}

#: Memory-category codes whose combined MTBE defines "GPU memory" resilience.
#: The paper excludes uncontained errors from the 30x memory-vs-hardware
#: comparison because >90% originate from a handful of defective GPUs.
MEMORY_MTBE_XIDS: Tuple[Xid, ...] = (Xid.DBE, Xid.RRE, Xid.RRF)

#: Hardware + interconnect codes for the comparison's "GPU hardware" side.
HARDWARE_MTBE_XIDS: Tuple[Xid, ...] = (
    Xid.NVLINK,
    Xid.FALLEN_OFF_BUS,
    Xid.GSP,
    Xid.PMU_SPI,
)


def is_studied(xid: int) -> bool:
    """Whether Stage III counts errors of this code.

    Every code counts except those the catalog marks unstudied (the
    user-induced XID 13 and 43); a code outside the catalog counts.
    """
    info = XID_CATALOG.get(xid)
    return info is None or info.studied
