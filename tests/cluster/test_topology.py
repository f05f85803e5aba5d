"""NVLink topology per node kind."""

from repro.cluster.node import NodeKind, make_node
from repro.cluster.topology import nvlink_topology_for


class TestTopologies:
    def test_a40_is_bridged_pairs(self):
        topo = nvlink_topology_for(NodeKind.A40_X4)
        assert topo.peers(0) == (1,)
        assert topo.peers(2) == (3,)
        # Pairs are isolated from each other.
        assert topo.reachable(0) == (0, 1)

    def test_a100_x4_fully_connected(self):
        topo = nvlink_topology_for(NodeKind.A100_X4)
        assert topo.peers(0) == (1, 2, 3)
        assert topo.reachable(2) == (0, 1, 2, 3)

    def test_a100_x8_nvswitch_all_to_all(self):
        topo = nvlink_topology_for(NodeKind.A100_X8)
        assert len(topo.peers(5)) == 7
        assert topo.reachable(0) == tuple(range(8))

    def test_gh200_connected(self):
        topo = nvlink_topology_for(NodeKind.GH200_X4)
        assert topo.reachable(0) == (0, 1, 2, 3)

    def test_cpu_node_has_none(self):
        assert nvlink_topology_for(NodeKind.CPU) is None

    def test_accepts_node_objects(self):
        node = make_node(NodeKind.A100_X4, 1)
        assert nvlink_topology_for(node).reachable(0) == (0, 1, 2, 3)

    def test_links_are_canonical_pairs(self):
        topo = nvlink_topology_for(NodeKind.A100_X8)
        assert all(a < b for a, b in topo.links)

