"""Slurm database queries and persistence round-trip."""

import pytest

from repro.slurm.accounting import NodeEvent, SlurmDatabase
from repro.slurm.job import JobRecord, JobState


def _job(job_id, start, end, state=JobState.COMPLETED, exit_code=0):
    return JobRecord(
        job_id=job_id,
        name="job",
        user="u001",
        submit_time=start - 10.0,
        start_time=start,
        end_time=end,
        n_gpus=1,
        gpus=(("gpua001", "0000:07:00"),),
        partition="a40",
        is_ml=False,
        state=state,
        exit_code=exit_code,
    )


@pytest.fixture()
def database():
    jobs = [
        _job(1, 0.0, 100.0),
        _job(2, 50.0, 200.0, state=JobState.FAILED, exit_code=1),
        _job(3, 300.0, 400.0, state=JobState.NODE_FAIL, exit_code=139),
    ]
    events = [NodeEvent("gpua001", 150.0, 0.5, "xid119")]
    return SlurmDatabase(jobs, events, window_seconds=1_000.0)


class TestQueries:
    def test_jobs_sorted_by_start(self, database):
        starts = [j.start_time for j in database.jobs]
        assert starts == sorted(starts)

    def test_success_rate(self, database):
        assert database.success_rate() == pytest.approx(1 / 3)

    def test_downtime_total(self, database):
        assert database.total_downtime_node_hours() == pytest.approx(0.5)


class TestPersistence:
    def test_save_load_round_trip(self, database, tmp_path):
        path = tmp_path / "slurm.jsonl"
        database.save(path)
        loaded = SlurmDatabase.load(path)
        assert len(loaded) == 3
        assert loaded.window_seconds == 1_000.0
        job = {j.job_id: j for j in loaded.jobs}[3]
        assert job.state is JobState.NODE_FAIL
        assert job.gpus == (("gpua001", "0000:07:00"),)
        assert len(loaded.node_events) == 1
        assert loaded.node_events[0].reason == "xid119"

    def test_truth_annotation_survives(self, database, tmp_path):
        database.jobs[0].truth_failed_by_xid = 74
        path = tmp_path / "slurm.jsonl"
        database.save(path)
        assert SlurmDatabase.load(path).jobs[0].truth_failed_by_xid == 74

    def test_unknown_row_kind_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"kind": "meta", "window_seconds": 1.0}\n{"kind": "???"}\n')
        with pytest.raises(ValueError):
            SlurmDatabase.load(path)
