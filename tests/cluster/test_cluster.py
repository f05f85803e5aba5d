"""Cluster substrate: GPU slots, nodes, Delta inventory."""

import pytest

from repro.cluster.gpu import GpuModel, pci_bus_for_slot
from repro.cluster.inventory import ClusterInventory
from repro.cluster.node import NODE_CONFIGS, NodeKind, make_node


class TestPciSlots:
    def test_pci_slots_unique(self):
        buses = [pci_bus_for_slot(i) for i in range(8)]
        assert len(set(buses)) == 8

    def test_pci_slot_out_of_range(self):
        with pytest.raises(ValueError):
            pci_bus_for_slot(8)


class TestNodes:
    def test_make_node_instantiates_gpus(self):
        node = make_node(NodeKind.A100_X8, 3)
        assert node.node_id == "gpuc003"
        assert node.gpu_count == 8
        assert all(g.model is GpuModel.A100 for g in node.gpus)

    def test_cpu_node_has_no_gpus(self):
        node = make_node(NodeKind.CPU, 1)
        assert not node.is_gpu_node

    def test_gpu_by_bus(self):
        node = make_node(NodeKind.A40_X4, 1)
        gpu = node.gpus[2]
        assert node.gpu_by_bus(gpu.pci_bus) is gpu
        with pytest.raises(KeyError):
            node.gpu_by_bus("0000:FF:00")

    def test_every_kind_has_config(self):
        assert set(NODE_CONFIGS) == set(NodeKind)


class TestDeltaInventory:
    def test_paper_shape(self, delta_cluster):
        summary = delta_cluster.summary()
        # Figure 2: 132 CPU nodes + 286 GPU nodes; 1,168 GPUs; 206 Ampere
        # nodes with 848 Ampere GPUs.
        assert summary["cpu_nodes"] == 132
        assert summary["gpu_nodes"] == 286
        assert summary["gpus"] == 1168
        assert summary["ampere_nodes"] == 206
        assert summary["ampere_gpus"] == 848
        assert summary["hopper_gpus"] == 320

    def test_duplicate_node_ids_rejected(self):
        node = make_node(NodeKind.A40_X4, 1)
        with pytest.raises(ValueError):
            ClusterInventory([node, node])

    def test_contains(self, delta_cluster):
        assert "gpua001" in delta_cluster
        assert "nope" not in delta_cluster
