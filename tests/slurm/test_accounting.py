"""Slurm database queries, persistence round-trip and damaged files."""

import json
import pickle

import numpy as np
import pytest

from repro.slurm.accounting import NodeEvent, SlurmDatabase, SlurmFileError
from repro.slurm.job import JobRecord, JobState, JobTable


def _job(job_id, start, end, state=JobState.COMPLETED, exit_code=0, name="job",
         truth=None, gpus=(("gpua001", "0000:07:00"),)):
    return JobRecord(
        job_id=job_id,
        name=name,
        user="u001",
        submit_time=start - 10.0,
        start_time=start,
        end_time=end,
        n_gpus=len(gpus),
        gpus=tuple(gpus),
        partition="a40",
        is_ml=False,
        state=state,
        exit_code=exit_code,
        truth_failed_by_xid=truth,
    )


def _database(jobs, events=(), window_seconds=1_000.0):
    return SlurmDatabase(JobTable.from_records(jobs), events, window_seconds=window_seconds)


@pytest.fixture()
def database():
    jobs = [
        _job(1, 0.0, 100.0),
        _job(2, 50.0, 200.0, state=JobState.FAILED, exit_code=1),
        _job(3, 300.0, 400.0, state=JobState.NODE_FAIL, exit_code=139),
    ]
    events = [NodeEvent("gpua001", 150.0, 0.5, "xid119")]
    return _database(jobs, events)


class TestQueries:
    def test_jobs_sorted_by_start(self, database):
        starts = [j.start_time for j in database.jobs]
        assert starts == sorted(starts)

    def test_equal_starts_keep_their_order(self):
        jobs = [_job(5, 10.0, 20.0), _job(4, 0.0, 5.0), _job(3, 10.0, 11.0),
                _job(2, 10.0, 30.0)]
        database = _database(jobs)
        assert [j.job_id for j in database.jobs] == [4, 5, 3, 2]

    def test_success_rate(self, database):
        assert database.success_rate() == pytest.approx(1 / 3)

    def test_downtime_total(self, database):
        assert database.total_downtime_node_hours() == pytest.approx(0.5)


def _dumps_lines(database):
    """The file as one ``json.dumps`` per row, as the row writer had it."""
    lines = [json.dumps({"kind": "meta", "window_seconds": database.window_seconds})]
    for job in database.jobs:
        lines.append(json.dumps({
            "kind": "job", "job_id": job.job_id, "name": job.name, "user": job.user,
            "submit_time": job.submit_time, "start_time": job.start_time,
            "end_time": job.end_time, "n_gpus": job.n_gpus,
            "gpus": [list(g) for g in job.gpus], "partition": job.partition,
            "is_ml": job.is_ml, "state": job.state.value, "exit_code": job.exit_code,
            "truth_failed_by_xid": job.truth_failed_by_xid,
        }))
    for event in database.node_events:
        lines.append(json.dumps({
            "kind": "node_event", "node_id": event.node_id,
            "start_time": event.start_time, "duration_hours": event.duration_hours,
            "reason": event.reason,
        }))
    return "".join(line + "\n" for line in lines).encode()


def _assert_round_trip(database, tmp_path):
    path, again = tmp_path / "slurm.jsonl", tmp_path / "again.jsonl"
    database.save(path)
    assert path.read_bytes() == _dumps_lines(database)
    SlurmDatabase.load(path).save(again)
    assert again.read_bytes() == path.read_bytes()


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

    def test_truth_annotation_survives(self, tmp_path):
        path = tmp_path / "slurm.jsonl"
        _database([_job(1, 0.0, 100.0, truth=74)]).save(path)
        assert SlurmDatabase.load(path).jobs[0].truth_failed_by_xid == 74

    def test_unknown_row_kind_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"kind": "meta", "window_seconds": 1.0}\n{"kind": "???"}\n')
        with pytest.raises(ValueError):
            SlurmDatabase.load(path)

    @pytest.mark.parametrize("jobs,events", [
        pytest.param(
            [_job(1, 0.0, 100.0, name="ré-run ☃ \"q\" \\", truth=79),
             _job(2, 0.1, 0.1, gpus=(("gpub002", "0000:07:00"), ("gpub003", "0000:46:00")),
                  state=JobState.NODE_FAIL, exit_code=1, truth=119),
             _job(3, 1e-7, 1e17, gpus=())],
            [NodeEvent("gpua001", 150.0, 0.5, "xid119")],
            id="non-ASCII name, truth set, odd floats"),
        pytest.param([], [], id="no jobs"),
        pytest.param([], [NodeEvent("gpua001", 1.5, 2.25, "xid95"),
                          NodeEvent("gpua002", 0.5, 1.0, "xid79")],
                     id="node events only"),
    ])
    def test_load_then_save_is_byte_identical(self, jobs, events, tmp_path):
        _assert_round_trip(_database(jobs, events), tmp_path)

    def test_nonfinite_floats_written_as_json_writes_them(self, tmp_path):
        jobs = [_job(1, 0.0, float("inf")), _job(2, 5.0, float("nan")),
                _job(3, float("-inf"), 1.0)]
        _assert_round_trip(_database(jobs), tmp_path)

    def test_synthesized_database_round_trips_byte_for_byte(self, tmp_path):
        from repro.datasets import synthesize_delta

        database = synthesize_delta(scale=0.05, seed=7).slurm_db
        assert len(database) > 2 * 1024  # several chunks, one of them partial
        _assert_round_trip(database, tmp_path)


def _damaged(tmp_path, database, edit):
    path = tmp_path / "slurm.jsonl"
    database.save(path)
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(edit(lines)))
    return path


@pytest.fixture()
def many(tmp_path):
    """A database of 2,500 one-GPU jobs: three decode chunks."""
    return _database([_job(i, float(i), i + 60.0) for i in range(1, 2_501)])


class TestDamagedFile:
    """Each defect raises one SlurmFileError naming the file and the first
    bad line (1-based; line 1 is the meta row)."""

    def test_file_cut_mid_line(self, many, tmp_path):
        path = _damaged(tmp_path, many, lambda lines: lines[:1500] + [lines[1500][:40]])
        with pytest.raises(SlurmFileError) as caught:
            SlurmDatabase.load(path)
        assert (caught.value.path, caught.value.line) == (str(path), 1501)
        assert "not JSON" in str(caught.value)

    def test_unknown_row_kind(self, many, tmp_path):
        def edit(lines):
            lines[1200] = '{"kind": "???"}\n'
            return lines

        with pytest.raises(SlurmFileError) as caught:
            SlurmDatabase.load(_damaged(tmp_path, many, edit))
        assert caught.value.line == 1201
        assert "unknown row kind '???'" in str(caught.value)

    def test_job_row_without_name(self, many, tmp_path):
        def edit(lines):
            for at in (2100, 2200):
                row = json.loads(lines[at])
                del row["name"]
                lines[at] = json.dumps(row) + "\n"
            return lines

        with pytest.raises(SlurmFileError) as caught:
            SlurmDatabase.load(_damaged(tmp_path, many, edit))
        assert caught.value.line == 2101
        assert "missing field 'name'" in str(caught.value)

    @pytest.mark.parametrize("field,value,held", [
        ("start_time", None, "null"), ("is_ml", None, "null"), ("name", None, "null"),
        ("start_time", "1.5", "a string"), ("job_id", 1.7, "a number"),
        ("is_ml", 1, "an integer"), ("truth_failed_by_xid", "74", "a string"),
    ])
    def test_field_of_the_wrong_type(self, many, tmp_path, field, value, held):
        """A value is not read as NaN, False, a parsed string or a
        truncated number."""
        def edit(lines):
            row = json.loads(lines[700])
            row[field] = value
            lines[700] = json.dumps(row) + "\n"
            return lines

        with pytest.raises(SlurmFileError) as caught:
            SlurmDatabase.load(_damaged(tmp_path, many, edit))
        assert caught.value.line == 701
        assert f"field {field!r} holds {held}" in str(caught.value)

    def test_unknown_job_state(self, many, tmp_path):
        def edit(lines):
            lines[1800] = lines[1800].replace('"COMPLETED"', '"RUNNING"')
            return lines

        with pytest.raises(SlurmFileError) as caught:
            SlurmDatabase.load(_damaged(tmp_path, many, edit))
        assert caught.value.line == 1801
        assert "unknown job state 'RUNNING'" in str(caught.value)

    @pytest.mark.parametrize("line", [
        "\n", "[1, 2]\n", '{"kind": "meta", "window_seconds": 1.0}, {"kind": "meta"}\n',
        '{"kind": "job"}\n',
    ], ids=["blank", "not an object", "two rows", "empty job"])
    def test_other_bad_lines(self, many, tmp_path, line):
        def edit(lines):
            lines[3] = line
            return lines

        with pytest.raises(SlurmFileError) as caught:
            SlurmDatabase.load(_damaged(tmp_path, many, edit))
        assert caught.value.line == 4

    def test_error_pickles_whole(self):
        error = SlurmFileError("a/slurm.jsonl", 7, "missing field 'name'")
        copy = pickle.loads(pickle.dumps(error))
        assert (copy.path, copy.line, copy.reason, str(copy)) == (
            error.path, error.line, error.reason, str(error)
        )


def test_columns_match_the_rows(many):
    jobs = many.jobs
    assert jobs.job_id.tolist() == [j.job_id for j in jobs]
    assert np.array_equal(jobs.elapsed, [j.elapsed for j in jobs])
    assert jobs.n_nodes.tolist() == [len(j.nodes) for j in jobs]
