"""GPU devices and models: the identity the paper's logs carry.

A GPU is named by its node ID and PCI Express bus address, which the
syslog renderer writes into every XID line and Stage I parses back.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class GpuModel(enum.Enum):
    A40 = "A40"
    A100 = "A100"
    H100 = "H100"


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
