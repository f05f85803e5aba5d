"""Availability analysis: MTTF/MTTR and Figure 9c."""

import pytest

from repro.core.availability import AvailabilityAnalyzer
from repro.core.coalesce import CoalescedError
from repro.core.mtbe import ErrorStatistics
from repro.slurm.accounting import NodeEvent


def _stats(n_errors, window_hours=1_000.0, n_nodes=10):
    errors = [
        CoalescedError(float(i), "n1", "p", 31, 0.0, 1) for i in range(n_errors)
    ]
    return ErrorStatistics(errors, window_hours, n_nodes)


class TestAvailability:
    def test_mttf_is_overall_per_node_mtbe(self):
        analyzer = AvailabilityAnalyzer([], _stats(100))
        assert analyzer.mttf_hours() == pytest.approx(100.0)

    def test_availability_formula(self):
        events = [NodeEvent("n1", 0.0, 0.5, "xid31")] * 4
        analyzer = AvailabilityAnalyzer(events, _stats(100))
        # MTTF 100, MTTR 0.5 -> 100/100.5
        assert analyzer.availability() == pytest.approx(100.0 / 100.5)

    def test_no_incidents_full_availability(self):
        analyzer = AvailabilityAnalyzer([], _stats(100))
        assert analyzer.availability() == pytest.approx(1.0)
        assert analyzer.mttr_hours() == 0.0

    def test_no_errors_unit_availability(self):
        analyzer = AvailabilityAnalyzer([], _stats(0))
        assert analyzer.availability() == 1.0

    def test_report_fields(self):
        events = [NodeEvent("n1", 0.0, 1.0, "xid31"), NodeEvent("n2", 10.0, 3.0, "x")]
        report = AvailabilityAnalyzer(events, _stats(50)).report()
        assert report.n_incidents == 2
        assert report.mttr_hours == pytest.approx(2.0)
        assert report.total_downtime_node_hours == pytest.approx(4.0)

    def test_downtime_minutes_per_day(self):
        events = [NodeEvent("n1", 0.0, 0.5, "x")]
        report = AvailabilityAnalyzer(events, _stats(100)).report()
        # (1 - 100/100.5) * 1440 ~ 7.16 min/day: the paper's "7 minutes".
        assert report.downtime_minutes_per_day == pytest.approx(7.16, abs=0.1)


class TestFigure9c:
    def test_distribution_summary(self):
        events = [NodeEvent("n1", 0.0, h, "x") for h in (0.1, 0.2, 0.3, 10.0)]
        dist = AvailabilityAnalyzer(events, _stats(10)).unavailability_distribution()
        assert dist["mean_hours"] == pytest.approx(2.65)
        assert dist["max_hours"] == 10.0
        assert dist["p50_hours"] == pytest.approx(0.25)

    def test_empty_distribution(self):
        dist = AvailabilityAnalyzer([], _stats(10)).unavailability_distribution()
        assert dist["mean_hours"] == 0.0


class TestDatasetAvailability:
    def test_two_nines_on_shared_dataset(self, study):
        report = study.availability().report()
        # Paper: ~99.5% per-node availability, MTTR ~0.3 h, MTTF ~67 h.
        assert report.availability == pytest.approx(0.995, abs=0.004)
        assert report.mttr_hours == pytest.approx(0.3, abs=0.12)
        assert report.mttf_hours == pytest.approx(67.0, rel=0.15)
