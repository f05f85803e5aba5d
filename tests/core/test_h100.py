"""Section 6: H100 early-deployment analysis."""

import pytest

from repro.core.h100 import H100Analyzer
from repro.core.propagation import PropagationAnalyzer
from repro.faults.xid import Xid


class TestH100Report:
    def test_counts_match_section6(self, h100_study):
        report = H100Analyzer(h100_study.error_statistics()).report()
        # Paper: 18 MMU, 10 DBE, 5 RRF, 9 contained, 70 XID-136 events.
        assert report.counts.get(int(Xid.MMU), 0) == pytest.approx(18, abs=4)
        assert report.dbe_count == pytest.approx(10, abs=3)
        assert report.rrf_count == pytest.approx(5, abs=3)
        assert report.counts.get(int(Xid.CONTAINED), 0) == pytest.approx(9, abs=3)
        assert report.xid136_count == pytest.approx(70, abs=8)

    def test_mtbe_near_4114_hours(self, h100_study):
        report = H100Analyzer(h100_study.error_statistics()).report()
        assert report.mtbe_node_hours == pytest.approx(4_114, rel=0.12)

    def test_remap_anomaly_detected(self, h100_study):
        report = H100Analyzer(h100_study.error_statistics()).report()
        assert report.rre_count == 0
        assert report.has_remap_anomaly

    def test_xid136_dominates(self, h100_study):
        report = H100Analyzer(h100_study.error_statistics()).report()
        assert report.xid136_share > 0.5

    def test_dbe_followed_by_rrf_not_rre(self, h100_study):
        graph = PropagationAnalyzer(h100_study.errors).analyze()
        assert graph.probability(Xid.DBE, Xid.RRE) == 0.0
        assert graph.probability(Xid.DBE, Xid.RRF) > 0.2

    def test_h100_events_only_on_gh_nodes(self, h100_dataset):
        assert all(e.node_id.startswith("gh") for e in h100_dataset.trace)
