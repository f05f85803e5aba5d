"""Cluster inventory: the full Delta machine and smaller variants.

``build_delta_cluster()`` reproduces the paper's Figure 2 shape: 132
CPU-only nodes and 286 GPU nodes — 100 4-way A40, 100 4-way A100, 6 8-way
A100, and 80 4-way GH200 (H100) — for 1,168 GPUs total, of which 848 are
Ampere GPUs on 206 Ampere nodes (the population Table 1 normalizes by).

A ``DeltaShape`` with other node counts builds a smaller cluster of the
same node kinds, as the incident scenarios do.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.cluster.gpu import GpuDevice, GpuModel
from repro.cluster.node import Node, NodeKind, make_node


@dataclass(frozen=True)
class DeltaShape:
    """Node counts per configuration."""

    cpu_nodes: int = 132
    a40_x4_nodes: int = 100
    a100_x4_nodes: int = 100
    a100_x8_nodes: int = 6
    gh200_nodes: int = 80

    def counts(self) -> Dict[NodeKind, int]:
        return {
            NodeKind.CPU: self.cpu_nodes,
            NodeKind.A40_X4: self.a40_x4_nodes,
            NodeKind.A100_X4: self.a100_x4_nodes,
            NodeKind.A100_X8: self.a100_x8_nodes,
            NodeKind.GH200_X4: self.gh200_nodes,
        }


class ClusterInventory:
    """An instantiated cluster: nodes, GPUs, and lookup indexes."""

    def __init__(self, nodes: Sequence[Node]) -> None:
        self.nodes: Tuple[Node, ...] = tuple(nodes)
        self._by_id: Dict[str, Node] = {n.node_id: n for n in self.nodes}
        if len(self._by_id) != len(self.nodes):
            raise ValueError("duplicate node_id in inventory")
        self._gpu_index: Dict[Tuple[str, str], GpuDevice] = {
            gpu.key: gpu for node in self.nodes for gpu in node.gpus
        }

    # -- lookups ---------------------------------------------------------

    def node(self, node_id: str) -> Node:
        return self._by_id[node_id]

    def __contains__(self, node_id: str) -> bool:
        return node_id in self._by_id

    # -- populations -----------------------------------------------------

    @property
    def gpu_nodes(self) -> Tuple[Node, ...]:
        return tuple(n for n in self.nodes if n.is_gpu_node)

    @property
    def cpu_nodes(self) -> Tuple[Node, ...]:
        return tuple(n for n in self.nodes if not n.is_gpu_node)

    @property
    def gpus(self) -> Tuple[GpuDevice, ...]:
        return tuple(self._gpu_index.values())

    def nodes_of_kind(self, *kinds: NodeKind) -> Tuple[Node, ...]:
        wanted = set(kinds)
        return tuple(n for n in self.nodes if n.kind in wanted)

    def gpus_of_model(self, *models: GpuModel) -> Tuple[GpuDevice, ...]:
        wanted = set(models)
        return tuple(g for g in self.gpus if g.model in wanted)

    @property
    def ampere_nodes(self) -> Tuple[Node, ...]:
        """The 206-node Ampere population Table 1 normalizes by."""
        return self.nodes_of_kind(NodeKind.A40_X4, NodeKind.A100_X4, NodeKind.A100_X8)

    @property
    def hopper_nodes(self) -> Tuple[Node, ...]:
        return self.nodes_of_kind(NodeKind.GH200_X4)

    def summary(self) -> Dict[str, int]:
        return {
            "nodes": len(self.nodes),
            "gpu_nodes": len(self.gpu_nodes),
            "cpu_nodes": len(self.cpu_nodes),
            "gpus": len(self.gpus),
            "ampere_nodes": len(self.ampere_nodes),
            "ampere_gpus": len(
                self.gpus_of_model(GpuModel.A40, GpuModel.A100)
            ),
            "hopper_gpus": len(self.gpus_of_model(GpuModel.H100)),
        }

    def __repr__(self) -> str:
        s = self.summary()
        return f"ClusterInventory(nodes={s['nodes']}, gpus={s['gpus']})"


def build_delta_cluster(shape: DeltaShape | None = None) -> ClusterInventory:
    """Build a Delta-shaped cluster (the stock shape by default)."""
    shape = shape or DeltaShape()
    nodes: List[Node] = []
    for kind, count in shape.counts().items():
        nodes.extend(make_node(kind, ordinal) for ordinal in range(1, count + 1))
    return ClusterInventory(nodes)
