"""Cluster substrate: GPU devices, node configurations, NVLink topology.

Models the NCSA Delta system the paper studied (its Figure 2): 132 CPU-only
nodes plus 286 GPU nodes in four configurations — 4-way NVIDIA A40, 4-way
A100, 8-way A100, and 4-way GH200 (H100).  Every GPU carries the node ID and
PCI-Express bus address the paper uses to identify devices in syslog.
"""

from repro.cluster.gpu import GpuDevice, GpuModel
from repro.cluster.node import Node, NodeConfig, NodeKind, NODE_CONFIGS
from repro.cluster.topology import NVLinkTopology, nvlink_topology_for
from repro.cluster.inventory import ClusterInventory, build_delta_cluster, DeltaShape

__all__ = [
    "GpuDevice",
    "GpuModel",
    "Node",
    "NodeConfig",
    "NodeKind",
    "NODE_CONFIGS",
    "NVLinkTopology",
    "nvlink_topology_for",
    "ClusterInventory",
    "build_delta_cluster",
    "DeltaShape",
]
