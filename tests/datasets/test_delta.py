"""Dataset synthesis orchestration."""

import hashlib

import pytest

from repro.core import DeltaStudy
from repro.datasets import DeltaDatasetConfig, synthesize_delta
from repro.datasets import delta
from repro.datasets.delta import derive_cordons
from repro.faults.xid import Xid


class TestSynthesizeDelta:
    def test_dataset_shape(self, dataset):
        assert dataset.reference_node_count == 206
        assert len(dataset.trace) > 500
        assert len(dataset.slurm_db) > 10_000
        assert dataset.slurm_db.node_events

    def test_reproducible_per_seed(self):
        a = synthesize_delta(scale=0.005, seed=77)
        b = synthesize_delta(scale=0.005, seed=77)
        assert len(a.trace) == len(b.trace)
        assert [e.time for e in a.trace.events[:20]] == [
            e.time for e in b.trace.events[:20]
        ]
        assert len(a.slurm_db) == len(b.slurm_db)

    def test_without_jobs(self):
        dataset = synthesize_delta(
            scale=0.005, seed=1, config=DeltaDatasetConfig(scale=0.005, seed=1,
                                                           with_jobs=False)
        )
        assert len(dataset.slurm_db) == 0
        assert len(dataset.trace) > 0
        # Without the workload, no MMU emissions come from jobs; the
        # injector still produces its hardware share.
        assert dataset.pids == {}

    def test_log_lines_include_noise_by_default(self, dataset):
        with_noise = sum(1 for _ in dataset.log_lines())
        without = sum(1 for _ in dataset.log_lines(include_noise=False))
        assert with_noise > without

    def test_write_logs_and_reload(self, dataset, tmp_path):
        paths = dataset.write_logs(tmp_path / "logs")
        assert len(paths) > 100  # one file per noisy node
        from repro.pipeline import FileSetSource

        study = DeltaStudy(
            FileSetSource(tmp_path / "logs"),
            window_hours=dataset.window_seconds / 3600.0,
            n_nodes=dataset.reference_node_count,
        )
        direct = DeltaStudy.from_dataset(dataset)
        assert len(study.errors) == len(direct.errors)

    def test_slurm_db_round_trip(self, dataset, tmp_path):
        from repro.slurm import SlurmDatabase

        dataset.save_slurm_db(tmp_path / "db.jsonl")
        loaded = SlurmDatabase.load(tmp_path / "db.jsonl")
        assert len(loaded) == len(dataset.slurm_db)
        assert len(loaded.node_events) == len(dataset.slurm_db.node_events)


def _schedule_digest(dataset):
    rows = [(j.job_id, j.start_time, j.end_time, j.gpus) for j in dataset.slurm_db.jobs]
    return hashlib.sha256(repr(rows).encode()).hexdigest()


class TestSchedulePinned:
    """The shared datasets' job placements, pinned so any drift in the
    scheduler's choices fails here."""

    def test_ampere_schedule(self, dataset):
        assert _schedule_digest(dataset) == (
            "c194665a832c16671a22b27e6596bacf965269bef57500b790e797361d187ca5"
        )

    def test_h100_schedule(self, h100_dataset):
        assert _schedule_digest(h100_dataset) == (
            "45fe4b71ab514905f1736c8f1a9dab561065a908485f7abeb398ce7d7963737d"
        )


class TestCordons:
    def test_offender_gpu_cordoned(self, dataset):
        cordons = derive_cordons(dataset.trace, dataset.config.seed)
        assert cordons, "the uncontained offender must trigger cordons"
        for intervals in cordons.values():
            assert all(end > start for start, end in intervals)

    def test_threshold_filters_quiet_gpus(self, dataset, monkeypatch):
        monkeypatch.setattr(delta, "CORDON_EVENT_THRESHOLD", 10 ** 9)
        assert derive_cordons(dataset.trace, dataset.config.seed) == {}


class TestGroundTruthConsistency:
    def test_truth_failure_probabilities_match_calibration(self, dataset):
        truth = dataset.truth
        mmu_prob = len(truth.truth_failures[Xid.MMU]) / len(truth.truth_encounters[Xid.MMU])
        assert mmu_prob == pytest.approx(0.5867, abs=0.1)

    def test_failed_jobs_end_within_attribution_window(self, dataset):
        by_id = {j.job_id: j for j in dataset.slurm_db.jobs}
        for xid, job_ids in dataset.truth.truth_failures.items():
            for job_id in list(job_ids)[:50]:
                job = by_id[job_id]
                assert job.truth_failed_by_xid is not None

    def test_gpu_failed_jobs_have_nonzero_exit_or_state(self, dataset):
        for job in dataset.slurm_db.jobs:
            if job.truth_failed_by_xid is not None:
                assert not job.succeeded
