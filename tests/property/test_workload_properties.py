"""Property-based tests on the workload generator and accounting."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.slurm.accounting import SlurmDatabase
from repro.slurm.job import JobRecord, JobState, JobTable
from repro.slurm.workload import SIZE_BUCKETS, WorkloadConfig, WorkloadModel


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=20, deadline=None)
def test_workload_specs_well_formed(seed):
    model = WorkloadModel(WorkloadConfig(scale=0.001, seed=seed))
    specs = model.generate()
    assert specs
    window = model.window_seconds
    for spec in specs:
        assert 0.0 <= spec.submit_time < window
        assert spec.duration >= 10.0
        assert 1 <= spec.requested_gpus <= 400
        assert spec.partition in ("a40", "a100")
        assert spec.mmu_emissions >= 0
    ids = [spec.job_id for spec in specs]
    assert len(set(ids)) == len(ids)


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=15, deadline=None)
def test_every_job_lands_in_exactly_one_bucket(seed):
    model = WorkloadModel(WorkloadConfig(scale=0.001, seed=seed))
    for spec in model.generate():
        matches = [
            b for b in SIZE_BUCKETS
            if b.min_gpus <= spec.requested_gpus <= b.max_gpus
        ]
        assert len(matches) == 1, spec.requested_gpus


@st.composite
def job_records(draw):
    n = draw(st.integers(min_value=0, max_value=25))
    jobs = []
    for i in range(n):
        start = draw(st.floats(min_value=0, max_value=1e6))
        jobs.append(
            JobRecord(
                job_id=i + 1,
                name=draw(st.sampled_from(["train_gnn", "namd_run"])),
                user="u1",
                submit_time=start,
                start_time=start,
                end_time=start + draw(st.floats(min_value=1.0, max_value=1e5)),
                n_gpus=1,
                gpus=(("n1", "0000:07:00"),),
                partition="a40",
                is_ml=False,
                state=draw(st.sampled_from(list(JobState))),
                exit_code=draw(st.sampled_from([0, 1, 139])),
            )
        )
    return jobs


@given(jobs=job_records())
@settings(max_examples=60, deadline=None)
def test_database_round_trip_preserves_everything(jobs, tmp_path_factory):
    path = tmp_path_factory.mktemp("db") / "db.jsonl"
    database = SlurmDatabase(JobTable.from_records(jobs), window_seconds=1e6)
    database.save(path)
    loaded = SlurmDatabase.load(path)
    assert len(loaded) == len(database)
    for a, b in zip(database.jobs, loaded.jobs):
        assert (a.job_id, a.start_time, a.end_time, a.state, a.exit_code) == (
            b.job_id, b.start_time, b.end_time, b.state, b.exit_code
        )
    assert loaded.success_rate() == database.success_rate()
