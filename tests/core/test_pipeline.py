"""End-to-end pipeline orchestration."""

import pytest

from repro.core import DeltaStudy
from repro.core.coalesce import CoalesceConfig
from repro.faults import AMPERE_CALIBRATION
from repro.pipeline import LinesSource

from tests.conftest import SCALE


class TestDeltaStudy:
    def test_errors_cached(self, study):
        first = study.errors
        assert first is study.errors

    @pytest.mark.parametrize("analyzer", [
        "error_statistics", "persistence", "propagation", "job_impact",
        "availability", "counterfactual",
    ])
    def test_each_analyzer_built_once(self, study, analyzer):
        build = getattr(study, analyzer)
        assert build() is build()

    def test_job_impact_requires_database(self):
        study = DeltaStudy(LinesSource([]), window_hours=10.0, n_nodes=1)
        with pytest.raises(ValueError):
            study.job_impact()
        with pytest.raises(ValueError):
            study.availability()

    def test_counterfactual_without_db_uses_default_mttr(self):
        study = DeltaStudy(LinesSource([]), window_hours=10.0, n_nodes=1)
        analyzer = study.counterfactual()
        assert analyzer.mttr_hours == pytest.approx(0.3)

    def test_from_dataset_wires_window_and_nodes(self, dataset, study):
        assert study.window_hours == pytest.approx(dataset.window_seconds / 3600.0)
        assert study.n_nodes == dataset.reference_node_count

    def test_from_dataset_window_equals_the_dataset_directory_window(self, study):
        """``study`` in memory and ``study --dataset`` must report one
        window, to the bit: at scale 0.02, ``window_seconds / 3600`` is one
        ULP below ``window_days * 24 * scale``, enough to move a printed
        Table-1 MTBE by one digit."""
        assert study.window_hours == AMPERE_CALIBRATION.window_days * 24.0 * SCALE

    def test_custom_coalesce_config_respected(self, dataset):
        wide = DeltaStudy.from_dataset(
            dataset, coalesce_config=CoalesceConfig(window_seconds=600.0)
        )
        narrow_count = len(DeltaStudy.from_dataset(dataset).errors)
        assert len(wide.errors) < narrow_count

    def test_delta_t_insensitivity_5_to_20_seconds(self, dataset):
        # Paper Section 3.2: results stable for dt in [5s, 20s].
        count_5 = len(DeltaStudy.from_dataset(dataset).errors)
        count_20 = len(
            DeltaStudy.from_dataset(
                dataset, coalesce_config=CoalesceConfig(window_seconds=20.0)
            ).errors
        )
        assert abs(count_5 - count_20) / count_5 < 0.05
