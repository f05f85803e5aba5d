"""Job rows and the columnar job table."""

import pytest

import numpy as np

from repro.slurm.job import ExitCode, JobRecord, JobState, JobTable


def _job(**kw):
    defaults = dict(
        job_id=1,
        name="train_resnet50",
        user="u001",
        submit_time=0.0,
        start_time=100.0,
        end_time=3_700.0,
        n_gpus=4,
        gpus=(("gpua001", "0000:07:00"), ("gpua001", "0000:46:00"),
              ("gpua002", "0000:07:00"), ("gpua002", "0000:46:00")),
        partition="a40",
        is_ml=True,
    )
    defaults.update(kw)
    return JobRecord(**defaults)


class TestJobRecord:
    def test_elapsed(self):
        assert _job().elapsed == 3_600.0
        assert _job().elapsed_minutes == 60.0

    def test_nodes_deduplicated(self):
        assert _job().nodes == ("gpua001", "gpua002")

    def test_gpu_and_node_hours(self):
        job = _job()
        assert job.gpu_hours == pytest.approx(4.0)
        assert job.node_hours == pytest.approx(2.0)

    def test_succeeded_requires_completed_and_zero_exit(self):
        assert _job().succeeded
        assert not _job(exit_code=1).succeeded
        assert not _job(state=JobState.TIMEOUT).succeeded

    def test_segfault_exit_code_matches_incident1(self):
        assert int(ExitCode.SEGFAULT) == 139


class TestJobTable:
    def _table(self):
        return JobTable.from_records([
            _job(),
            _job(job_id=2, gpus=(("gpua003", "0000:07:00"),), n_gpus=1, name="namd"),
            _job(job_id=3, start_time=500.0, end_time=400.0, gpus=(), n_gpus=0),
        ])

    def test_rows_round_trip(self):
        rows = [_job(truth_failed_by_xid=79, state=JobState.TIMEOUT),
                _job(job_id=9, gpus=(), n_gpus=0)]
        table = JobTable.from_records(rows)
        assert list(table) == rows
        assert table[-1] == rows[-1]

    def test_derived_columns_match_the_rows(self):
        table = self._table()
        assert table.elapsed.tolist() == [j.elapsed for j in table]
        assert table.succeeded.tolist() == [j.succeeded for j in table]
        assert table.n_nodes.tolist() == [2, 1, 0]
        assert table.alloc_job.tolist() == [0, 0, 0, 0, 1]

    def test_take_gathers_allocations(self):
        table = self._table()
        taken = table.take(np.array([2, 0, 1]))
        assert list(taken) == [table[2], table[0], table[1]]

    def test_failed_truncates_and_records_truth(self):
        table = self._table()
        failed = table.failed([0], [1_000.0], [119], [JobState.NODE_FAIL],
                              [int(ExitCode.GENERIC)])
        job = failed[0]
        assert job.end_time == 1_000.0
        assert job.truth_failed_by_xid == 119
        assert job.state is JobState.NODE_FAIL
        assert not job.succeeded
        # A new table: the one it came from still holds the natural fate.
        assert table[0].end_time == 3_700.0 and table[0].succeeded
        assert failed[1] == table[1]

    def test_failed_clamps_to_job_lifetime(self):
        table = self._table()
        failed = table.failed([0, 1], [10.0, 10_000.0], [31, 31],
                              [JobState.FAILED] * 2, [139, 139])
        early, late = failed[0], failed[1]
        assert early.end_time == 100.0  # not before start
        assert late.end_time == 3_700.0  # not after natural end
