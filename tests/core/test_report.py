"""Report rendering: every table/figure renderer produces sane text."""

import pytest

from repro.core.report import (
    counterfactual_result,
    figure5_result,
    figure6_result,
    figure7_result,
    figure9_result,
    overprovision_result,
    table1_result,
    table2_result,
    table3_result,
)
from repro.faults.calibration import AMPERE_CALIBRATION


@pytest.fixture(scope="module")
def pieces(study):
    return {
        "stats": study.error_statistics(),
        "impact": study.job_impact(),
        "availability": study.availability(),
        "propagation": study.propagation(),
        "counterfactual": study.counterfactual().analyze(),
    }


class TestTableRenders:
    def test_table1_contains_paper_columns(self, pieces):
        text = table1_result(pieces["stats"], AMPERE_CALIBRATION, scale=0.02).render_text()
        assert "MTBE/node paper" in text
        assert "Uncontained ECC" in text
        assert "Memory vs hardware MTBE ratio" in text

    def test_table1_without_profile(self, pieces):
        text = table1_result(pieces["stats"]).render_text()
        assert "Table 1" in text

    def test_table2_mentions_total_failed(self, pieces):
        text = table2_result(pieces["impact"]).render_text()
        assert "Total GPU-failed jobs" in text
        assert "MMU Err." in text

    def test_table3_has_all_buckets(self, pieces):
        text = table3_result(pieces["impact"]).render_text()
        for label in ("1", "2-4", "8-32", "256+"):
            assert f"| {label} " in text


class TestFigureRenders:
    def test_figure5(self, pieces):
        text = figure5_result(pieces["propagation"]).render_text()
        assert "GSP -> PMU SPI" in text and "paper 0.82" in text

    def test_figure6(self, pieces):
        text = figure6_result(pieces["propagation"]).render_text()
        assert "NVLink -> peer GPU" in text

    def test_figure7(self, pieces):
        text = figure7_result(pieces["propagation"]).render_text()
        assert "DBE impact alleviated" in text

    def test_figure9(self, pieces):
        text = figure9_result(pieces["impact"], pieces["availability"]).render_text()
        assert "node-hours lost" in text
        assert "availability" in text

    def test_counterfactual(self, pieces):
        text = counterfactual_result(pieces["counterfactual"]).render_text()
        assert "without top offenders" in text

    def test_overprovision_marks_paper_anchors(self):
        text = overprovision_result({(40.0, 0.995): 0.2, (5.0, 0.995): 0.05}).render_text()
        assert "20%" in text and "5%" in text

    def test_generations(self, study):
        from repro.core.comparison import GenerationComparison
        from repro.core.report import generations_result

        text = generations_result(
            GenerationComparison(study.error_statistics(), study.propagation())
        ).render_text()
        assert "Kepler" in text
        assert "New Ampere-era failure modes" in text

    def test_spatial(self, study):
        from repro.core.report import spatial_result
        from repro.core.spatial import SpatialAnalyzer

        text = spatial_result(
            SpatialAnalyzer(study.error_statistics().errors, n_gpus=848)
        ).render_text()
        assert "Gini" in text and "| 95 " in text
