"""The experiment registry: every registered artifact runs end-to-end."""

import pytest

from repro.experiments import (
    EXPERIMENTS,
    list_experiments,
    run_experiment,
    verified_experiments,
)
from repro.faults.calibration import PAPER_EXPECTATIONS
from repro.pipeline import LinesSource
from repro.results import ExperimentResult, validate_result_dict


class TestRegistry:
    def test_every_paper_artifact_registered(self):
        artifacts = {e.paper_artifact for e in EXPERIMENTS.values()}
        for expected in ("Table 1", "Table 2", "Table 3", "Figure 5",
                         "Figure 6", "Figure 7", "Figure 9",
                         "Section 5.4", "Section 5.5"):
            assert expected in artifacts

    def test_listing_sorted_and_complete(self):
        listed = list_experiments()
        assert len(listed) == len(EXPERIMENTS)
        identifiers = [e.identifier for e in listed]
        assert identifiers == sorted(identifiers)

    def test_verified_subset_nonempty(self):
        verified = {e.identifier for e in verified_experiments()}
        assert "table1" in verified and "fig9" in verified
        # every expectation key belongs to a verified experiment
        for key in PAPER_EXPECTATIONS:
            assert any(key.startswith(v + ".") for v in verified), key

    def test_unknown_experiment_rejected(self, study):
        with pytest.raises(KeyError, match="table1"):
            run_experiment("nope", study)


class TestRunners:
    @pytest.mark.parametrize("identifier", sorted(EXPERIMENTS))
    def test_every_experiment_returns_wellformed_result(self, identifier, study):
        result = run_experiment(identifier, study, scale=0.02, seed=1234)
        assert isinstance(result, ExperimentResult)
        assert result.experiment_id == identifier

        # provenance is fully populated
        manifest = result.manifest
        assert manifest is not None
        assert manifest.run_id
        assert manifest.seed == 1234
        assert manifest.scale == 0.02
        assert manifest.window_hours and manifest.window_hours > 0
        assert manifest.n_nodes and manifest.n_nodes > 0
        assert "coalesce" in manifest.config_hashes
        assert manifest.package_version

        # every paper expectation for this experiment maps to a metric
        names = {m.name for m in result.metrics}
        for key in PAPER_EXPECTATIONS:
            if key.startswith(identifier + "."):
                assert key[len(identifier) + 1:] in names, key

        # the JSON artifact is schema-valid and the rendering deterministic
        assert validate_result_dict(result.to_dict()) == []
        again = run_experiment(identifier, study, scale=0.02, seed=1234)
        assert again.render_text() == result.render_text()

    def test_rendered_text_names_the_artifact(self, study):
        text = run_experiment("fig5", study, scale=0.02).render_text()
        assert "Figure 5" in text

    def test_jobless_study_rejects_job_experiments(self):
        from repro.core import DeltaStudy

        bare = DeltaStudy(LinesSource([]), window_hours=10.0, n_nodes=1)
        with pytest.raises(ValueError):
            run_experiment("table2", bare)

    def test_jobless_study_runs_hardware_experiments(self, dataset):
        from repro.core import DeltaStudy

        bare = DeltaStudy(
            LinesSource(dataset.log_lines(include_noise=False)),
            window_hours=dataset.window_seconds / 3600.0,
            n_nodes=dataset.reference_node_count,
        )
        text = run_experiment("fig5", bare, scale=0.02).render_text()
        assert "GSP" in text

    def test_spatial_gpu_population_comes_from_the_dataset(self, study):
        # the study carries its inventory; the spatial analysis must use it
        assert study.n_gpus == 848
        result = run_experiment("sec4.2iii", study, scale=0.02)
        assert result.manifest.n_gpus == 848
