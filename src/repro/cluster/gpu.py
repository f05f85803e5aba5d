"""GPU device and model specifications.

Resilience features differ across the three models the paper studies
(Section 2.3): all three remap faulty memory rows, but only A100 and H100
support uncorrectable-error *containment* and *dynamic page offlining*, and
only Ampere/Hopper parts carry the GSP co-processor whose RPC timeouts the
paper identifies as the dominant hardware weak link.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict


class GpuArchitecture(enum.Enum):
    AMPERE = "ampere"
    HOPPER = "hopper"


class GpuModel(enum.Enum):
    A40 = "A40"
    A100 = "A100"
    H100 = "H100"


@dataclass(frozen=True)
class GpuSpec:
    """Static per-model capability sheet used by the fault chains."""

    model: GpuModel
    architecture: GpuArchitecture
    memory_gib: int
    memory_kind: str
    #: Maximum row remappings before RRF becomes certain (Ampere: 512).
    max_row_remaps: int
    #: A100/H100 only: uncorrectable memory errors can be contained.
    supports_error_containment: bool
    #: A100/H100 only: bad pages can be offlined without a GPU reset.
    supports_page_offlining: bool
    #: Whether the part carries a GSP co-processor (all three do).
    has_gsp: bool = True
    #: Number of NVLink ports per GPU (0 disables NVLink fault injection).
    nvlink_ports: int = 0


GPU_SPECS: Dict[GpuModel, GpuSpec] = {
    GpuModel.A40: GpuSpec(
        model=GpuModel.A40,
        architecture=GpuArchitecture.AMPERE,
        memory_gib=48,
        memory_kind="GDDR6",
        max_row_remaps=512,
        supports_error_containment=False,
        supports_page_offlining=False,
        nvlink_ports=1,
    ),
    GpuModel.A100: GpuSpec(
        model=GpuModel.A100,
        architecture=GpuArchitecture.AMPERE,
        memory_gib=40,
        memory_kind="HBM2e",
        max_row_remaps=512,
        supports_error_containment=True,
        supports_page_offlining=True,
        nvlink_ports=12,
    ),
    GpuModel.H100: GpuSpec(
        model=GpuModel.H100,
        architecture=GpuArchitecture.HOPPER,
        memory_gib=96,
        memory_kind="HBM3",
        max_row_remaps=512,
        supports_error_containment=True,
        supports_page_offlining=True,
        nvlink_ports=18,
    ),
}


@dataclass(frozen=True, order=True)
class GpuDevice:
    """One physical GPU, identified the way the paper identifies devices.

    The paper (footnote 6): "GPU devices are identified by their node ID and
    PCI Express bus address" — both are part of this identity and both are
    rendered into (and re-parsed from) syslog lines.
    """

    node_id: str
    pci_bus: str  # e.g. "0000:C7:00"
    model: GpuModel = field(compare=False)
    index: int = field(compare=False)  # slot index within the node

    @property
    def key(self) -> tuple[str, str]:
        """Hashable identity: ``(node_id, pci_bus)``."""
        return (self.node_id, self.pci_bus)

    def __str__(self) -> str:
        return f"{self.node_id}:GPU{self.index}({self.model.value}@{self.pci_bus})"


#: PCI bus numbers used for GPU slots, mirroring a typical SXM board layout.
_PCI_SLOTS = ("07", "46", "85", "C7", "0B", "4A", "89", "CB")


def pci_bus_for_slot(index: int) -> str:
    """Deterministic PCI bus address for a GPU slot index (0-7)."""
    if not 0 <= index < len(_PCI_SLOTS):
        raise ValueError(f"GPU slot index out of range: {index}")
    return f"0000:{_PCI_SLOTS[index]}:00"
