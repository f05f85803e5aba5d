"""Intra-node NVLink topology.

NVLink is the intra-node GPU-to-GPU fabric whose errors (XID 74) the paper
studies in Section 4.4.2.  The fault injector uses the topology to decide
which *peer* GPUs an NVLink error can spread to (Figure 6's inter-GPU
propagation), so the graph structure — pairwise on A40, fully connected on
4-way A100/GH200, NVSwitch all-to-all on 8-way A100 — directly shapes the
reproduced multi-GPU involvement distribution (84% single-GPU, 16% multi,
35 all-eight events).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Tuple

from repro.cluster.node import Node, NodeKind


@dataclass(frozen=True)
class NVLinkTopology:
    """An undirected link graph over GPU slot indices within one node."""

    kind: NodeKind
    links: FrozenSet[Tuple[int, int]]  # each tuple sorted (low, high)

    def peers(self, slot: int) -> Tuple[int, ...]:
        """Slots directly linked to ``slot``."""
        out = []
        for a, b in self.links:
            if a == slot:
                out.append(b)
            elif b == slot:
                out.append(a)
        return tuple(sorted(out))

    def reachable(self, slot: int) -> Tuple[int, ...]:
        """All slots in the same NVLink connected component as ``slot``."""
        seen = {slot}
        frontier = [slot]
        while frontier:
            current = frontier.pop()
            for peer in self.peers(current):
                if peer not in seen:
                    seen.add(peer)
                    frontier.append(peer)
        return tuple(sorted(seen))


def _all_to_all(n: int) -> FrozenSet[Tuple[int, int]]:
    return frozenset((a, b) for a in range(n) for b in range(a + 1, n))


def _pairs(n: int) -> FrozenSet[Tuple[int, int]]:
    return frozenset((i, i + 1) for i in range(0, n - 1, 2))


_TOPOLOGIES: Dict[NodeKind, NVLinkTopology] = {
    # A40 exposes a single NVLink bridge per card: GPUs are bridged in pairs.
    NodeKind.A40_X4: NVLinkTopology(NodeKind.A40_X4, _pairs(4)),
    # 4-way SXM A100 boards run direct NVLink between every GPU pair.
    NodeKind.A100_X4: NVLinkTopology(NodeKind.A100_X4, _all_to_all(4)),
    # 8-way HGX boards connect all GPUs through NVSwitch: effectively all-to-all.
    NodeKind.A100_X8: NVLinkTopology(NodeKind.A100_X8, _all_to_all(8)),
    # GH200 quads use NVLink between all four superchips.
    NodeKind.GH200_X4: NVLinkTopology(NodeKind.GH200_X4, _all_to_all(4)),
}


def nvlink_topology_for(node: Node | NodeKind) -> NVLinkTopology | None:
    """The NVLink topology for a node (``None`` for CPU-only nodes)."""
    kind = node.kind if isinstance(node, Node) else node
    return _TOPOLOGIES.get(kind)
