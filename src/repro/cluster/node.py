"""Node configurations and node objects."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.cluster.gpu import GpuDevice, GpuModel, pci_bus_for_slot


class NodeKind(enum.Enum):
    """Delta's four GPU node configurations plus CPU-only nodes (Figure 2)."""

    CPU = "cpu"
    A40_X4 = "a40_x4"
    A100_X4 = "a100_x4"
    A100_X8 = "a100_x8"
    GH200_X4 = "gh200_x4"


@dataclass(frozen=True)
class NodeConfig:
    """Static description of a node kind."""

    kind: NodeKind
    gpu_model: GpuModel | None
    gpus_per_node: int
    hostname_prefix: str
    description: str

    @property
    def is_gpu_node(self) -> bool:
        return self.gpus_per_node > 0


NODE_CONFIGS: Dict[NodeKind, NodeConfig] = {
    NodeKind.CPU: NodeConfig(
        NodeKind.CPU, None, 0, "cn", "Dual 64-core AMD EPYC Milan, no GPUs"
    ),
    NodeKind.A40_X4: NodeConfig(
        NodeKind.A40_X4, GpuModel.A40, 4, "gpua", "4-way NVIDIA A40"
    ),
    NodeKind.A100_X4: NodeConfig(
        NodeKind.A100_X4, GpuModel.A100, 4, "gpub", "4-way NVIDIA A100"
    ),
    NodeKind.A100_X8: NodeConfig(
        NodeKind.A100_X8, GpuModel.A100, 8, "gpuc", "8-way NVIDIA A100"
    ),
    NodeKind.GH200_X4: NodeConfig(
        NodeKind.GH200_X4, GpuModel.H100, 4, "gh", "4x GH200 Grace-Hopper superchips"
    ),
}


@dataclass(frozen=True)
class Node:
    """One compute node with its instantiated GPU devices."""

    node_id: str
    kind: NodeKind
    gpus: Tuple[GpuDevice, ...]

    @property
    def gpu_count(self) -> int:
        return len(self.gpus)

    @property
    def is_gpu_node(self) -> bool:
        return bool(self.gpus)

    def gpu_by_bus(self, pci_bus: str) -> GpuDevice:
        for gpu in self.gpus:
            if gpu.pci_bus == pci_bus:
                return gpu
        raise KeyError(f"no GPU at {pci_bus} on node {self.node_id}")


def make_node(kind: NodeKind, ordinal: int) -> Node:
    """Instantiate a node of the given kind with deterministic identifiers."""
    config = NODE_CONFIGS[kind]
    node_id = f"{config.hostname_prefix}{ordinal:03d}"
    gpus: List[GpuDevice] = []
    if config.gpu_model is not None:
        gpus = [
            GpuDevice(
                node_id=node_id,
                pci_bus=pci_bus_for_slot(slot),
                model=config.gpu_model,
                index=slot,
            )
            for slot in range(config.gpus_per_node)
        ]
    return Node(node_id=node_id, kind=kind, gpus=tuple(gpus))
