"""Propagation estimation: edges, terminals, isolation, NVLink involvement."""

import pytest

from repro.core.coalesce import CoalescedError
from repro.core.propagation import PropagationAnalyzer
from repro.faults.xid import Xid


def _error(t, xid, node="n1", pci="0000:07:00", persistence=0.0):
    return CoalescedError(
        time=t, node_id=node, pci_bus=pci, xid=int(xid), persistence=persistence,
        n_raw=1,
    )


class TestIntraGpuEdges:
    def test_simple_chain_measured(self):
        errors = [
            _error(0.0, Xid.PMU_SPI),
            _error(2.0, Xid.MMU),
        ]
        graph = PropagationAnalyzer(errors).analyze()
        assert graph.probability(Xid.PMU_SPI, Xid.MMU) == 1.0
        assert graph.mean_delay(Xid.PMU_SPI, Xid.MMU) == pytest.approx(2.0)
        assert graph.terminal_probability(Xid.MMU) == 1.0

    def test_successor_beyond_window_is_terminal(self):
        errors = [_error(0.0, Xid.PMU_SPI), _error(120.0, Xid.MMU)]
        graph = PropagationAnalyzer(errors).analyze()
        assert graph.probability(Xid.PMU_SPI, Xid.MMU) == 0.0
        assert graph.terminal_probability(Xid.PMU_SPI) == 1.0

    def test_persistence_extends_reach(self):
        # Successor measured from the end of the burst: a 100s burst plus a
        # 10s gap is still propagation even with a 60s window.
        errors = [
            _error(0.0, Xid.GSP, persistence=100.0),
            _error(110.0, Xid.PMU_SPI),
        ]
        graph = PropagationAnalyzer(errors).analyze()
        assert graph.probability(Xid.GSP, Xid.PMU_SPI) == 1.0

    def test_probability_normalized_by_source_count(self):
        errors = [
            _error(0.0, Xid.PMU_SPI),
            _error(2.0, Xid.MMU),
            _error(1_000.0, Xid.PMU_SPI),  # terminal instance
        ]
        graph = PropagationAnalyzer(errors).analyze()
        assert graph.probability(Xid.PMU_SPI, Xid.MMU) == pytest.approx(0.5)
        assert graph.terminal_probability(Xid.PMU_SPI) == pytest.approx(0.5)

    def test_different_gpus_not_intra(self):
        errors = [
            _error(0.0, Xid.PMU_SPI),
            _error(2.0, Xid.MMU, pci="0000:46:00"),
        ]
        graph = PropagationAnalyzer(errors).analyze()
        assert graph.probability(Xid.PMU_SPI, Xid.MMU) == 0.0


class TestIsolation:
    def test_first_error_is_isolated(self):
        errors = [_error(0.0, Xid.GSP), _error(10.0, Xid.GSP)]
        graph = PropagationAnalyzer(errors).analyze()
        # First GSP has no predecessor; the second follows within the window.
        assert graph.isolation_probability(Xid.GSP) == pytest.approx(0.5)


class TestInterGpuEdges:
    def test_cross_gpu_same_node(self):
        errors = [
            _error(0.0, Xid.NVLINK),
            _error(3.0, Xid.NVLINK, pci="0000:46:00"),
        ]
        graph = PropagationAnalyzer(errors).analyze()
        assert graph.probability(Xid.NVLINK, Xid.NVLINK, inter=True) == pytest.approx(0.5)

    def test_cross_node_never_inter(self):
        errors = [
            _error(0.0, Xid.NVLINK),
            _error(3.0, Xid.NVLINK, node="n2"),
        ]
        graph = PropagationAnalyzer(errors).analyze()
        assert graph.probability(Xid.NVLINK, Xid.NVLINK, inter=True) == 0.0


class TestNVLinkInvolvement:
    def test_single_gpu_incident(self):
        errors = [_error(0.0, Xid.NVLINK), _error(10.0, Xid.NVLINK)]
        involvement = PropagationAnalyzer(errors).nvlink_involvement()
        assert involvement.total_errors == 2
        assert involvement.multi_gpu_fraction == 0.0

    def test_multi_gpu_incident(self):
        errors = [
            _error(0.0, Xid.NVLINK),
            _error(3.0, Xid.NVLINK, pci="0000:46:00"),
            _error(8.0, Xid.NVLINK),
        ]
        involvement = PropagationAnalyzer(errors).nvlink_involvement()
        assert involvement.errors_in_multi_gpu_incidents == 3
        assert involvement.incident_gpu_counts == (2,)

    def test_all_eight(self):
        errors = [
            _error(float(i), Xid.NVLINK, pci=f"0000:{i:02d}:00") for i in range(8)
        ]
        involvement = PropagationAnalyzer(errors).nvlink_involvement()
        assert involvement.errors_in_all8_incidents == 8

    def test_separate_incidents_split_by_gap(self):
        errors = [
            _error(0.0, Xid.NVLINK),
            _error(1_000.0, Xid.NVLINK, pci="0000:46:00"),
        ]
        involvement = PropagationAnalyzer(errors).nvlink_involvement()
        assert involvement.multi_gpu_fraction == 0.0
        assert len(involvement.incident_gpu_counts) == 2


class TestPaperPaths:
    def test_memory_recovery_paths_from_dataset(self, study):
        paths = study.propagation().memory_recovery_paths()
        # Small-sample tolerances; verify's fig7 rows and EXPERIMENTS.md
        # hold the paper comparison.
        assert 0.0 <= paths["p_dbe_to_rre"] <= 1.0
        assert paths["p_dbe_to_rre"] + paths["p_dbe_to_rrf"] <= 1.0 + 1e-9

    def test_hardware_paths_from_dataset(self, study):
        paths = study.propagation().hardware_paths()
        assert paths["p_gsp_self_or_terminal"] > 0.9
        assert paths["p_gsp_isolated"] > 0.9
        assert paths["p_nvlink_self"] == pytest.approx(0.66, abs=0.12)
