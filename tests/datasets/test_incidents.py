"""Incident scenario builders (Figures 1 and 8)."""

import pytest

from repro.core import DeltaStudy
from repro.core.jobimpact import JobImpactAnalyzer
from repro.core.parsing import parse_batch
from repro.core.coalesce import coalesce_errors
from repro.datasets import gsp_incident, nvlink_multinode_incident, pmu_mmu_incident
from repro.faults.xid import Xid
from repro.pipeline import LinesSource
from repro.slurm.job import ExitCode, JobState


class TestGspIncident:
    def test_figure1_story(self):
        incident = gsp_incident()
        errors = coalesce_errors(parse_batch(incident.log_lines()))
        assert [e.xid for e in errors] == [int(Xid.GSP)]

        analyzer = JobImpactAnalyzer(incident.slurm_db, errors)
        classified = analyzer.classify_jobs()
        assert classified[1] == (True, (int(Xid.GSP),))

        # Recovery took 23 node-hours (drain + reboot).
        assert incident.slurm_db.total_downtime_node_hours() == pytest.approx(23.0)

    def test_narrative_present(self):
        assert "23" in gsp_incident().narrative


class TestNVLinkIncident:
    def test_figure8_incident1(self):
        incident = nvlink_multinode_incident()
        job = incident.slurm_db.jobs[0]
        assert len(job.nodes) == 4  # four GPUs across four nodes
        assert job.exit_code == int(ExitCode.SEGFAULT)

        errors = coalesce_errors(parse_batch(incident.log_lines()))
        analyzer = JobImpactAnalyzer(incident.slurm_db, errors)
        assert analyzer.classify_jobs()[2] == (True, (int(Xid.NVLINK),))

    def test_one_faulty_gpu_fails_whole_job(self):
        incident = nvlink_multinode_incident()
        errors = coalesce_errors(parse_batch(incident.log_lines()))
        # The error touches a single GPU yet the job lost all four.
        assert len({e.gpu_key for e in errors}) == 1
        assert incident.slurm_db.jobs[0].n_gpus == 4


class TestPmuMmuIncident:
    def test_figure8_incident2_propagation(self):
        incident = pmu_mmu_incident()
        errors = coalesce_errors(parse_batch(incident.log_lines()))
        from repro.core.propagation import PropagationAnalyzer

        graph = PropagationAnalyzer(errors).analyze()
        assert graph.probability(Xid.PMU_SPI, Xid.MMU) == 1.0

        analyzer = JobImpactAnalyzer(incident.slurm_db, errors)
        is_failed, responsible = analyzer.classify_jobs()[3]
        assert is_failed
        assert int(Xid.MMU) in responsible and int(Xid.PMU_SPI) in responsible


class TestEndToEndOnIncidents:
    @pytest.mark.parametrize(
        "builder", [gsp_incident, nvlink_multinode_incident, pmu_mmu_incident]
    )
    def test_pipeline_runs_on_every_incident(self, builder):
        incident = builder()
        study = DeltaStudy(
            LinesSource(incident.log_lines()),
            window_hours=incident.trace.window_seconds / 3600.0,
            n_nodes=1,
            slurm_db=incident.slurm_db,
        )
        assert study.error_statistics().total_count >= 1
        assert study.job_impact().total_gpu_failed() == 1
