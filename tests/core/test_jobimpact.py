"""Job-impact analysis: classification, Table 2, Table 3, Figure 9a/9b."""

from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.coalesce import CoalescedError
from repro.core.jobimpact import (
    ATTRIBUTION_WINDOW,
    ElapsedHistogram,
    JobImpactAnalyzer,
    Table2Row,
    Table3Row,
)
from repro.core.mtbe import ErrorStatistics
from repro.faults.xid import Xid, is_studied
from repro.slurm.accounting import SlurmDatabase
from repro.slurm.job import JobRecord, JobState, JobTable
from repro.slurm.workload import SIZE_BUCKETS, classify_ml


def _job(job_id, start, end, state=JobState.COMPLETED, exit_code=0, gpus=None,
         name="namd_run"):
    return JobRecord(
        job_id=job_id,
        name=name,
        user="u001",
        submit_time=start,
        start_time=start,
        end_time=end,
        n_gpus=len(gpus) if gpus else 1,
        gpus=tuple(gpus) if gpus else (("n1", "0000:07:00"),),
        partition="a100",
        is_ml=False,
        state=state,
        exit_code=exit_code,
    )


def _database(jobs):
    return SlurmDatabase(JobTable.from_records(jobs))


def _error(t, xid=Xid.GSP, node="n1", pci="0000:07:00"):
    return CoalescedError(
        time=t, node_id=node, pci_bus=pci, xid=int(xid), persistence=0.0, n_raw=1
    )


class TestClassification:
    def test_failure_right_after_error_is_gpu_failed(self):
        jobs = [_job(1, 0.0, 1_000.0, state=JobState.NODE_FAIL, exit_code=1)]
        errors = [_error(990.0)]
        analyzer = JobImpactAnalyzer(_database(jobs), errors)
        classified = analyzer.classify_jobs()
        assert classified[1] == (True, (int(Xid.GSP),))

    def test_error_outside_attribution_window_not_blamed(self):
        jobs = [_job(1, 0.0, 1_000.0, state=JobState.FAILED, exit_code=1)]
        errors = [_error(1_000.0 - ATTRIBUTION_WINDOW - 5.0)]
        analyzer = JobImpactAnalyzer(_database(jobs), errors)
        assert analyzer.classify_jobs()[1][0] is False

    def test_successful_job_never_gpu_failed(self):
        jobs = [_job(1, 0.0, 1_000.0)]
        errors = [_error(995.0)]
        analyzer = JobImpactAnalyzer(_database(jobs), errors)
        assert analyzer.classify_jobs()[1][0] is False

    def test_error_on_foreign_gpu_not_blamed(self):
        jobs = [_job(1, 0.0, 1_000.0, state=JobState.FAILED, exit_code=1)]
        errors = [_error(995.0, pci="0000:46:00")]
        analyzer = JobImpactAnalyzer(_database(jobs), errors)
        assert analyzer.classify_jobs()[1][0] is False

    def test_all_window_codes_held_responsible(self):
        # PMU -> MMU chain: both codes within the window share the blame.
        jobs = [_job(1, 0.0, 1_000.0, state=JobState.FAILED, exit_code=139)]
        errors = [_error(985.0, Xid.PMU_SPI), _error(988.0, Xid.MMU)]
        analyzer = JobImpactAnalyzer(_database(jobs), errors)
        assert analyzer.classify_jobs()[1][1] == (int(Xid.MMU), int(Xid.PMU_SPI))

    def test_user_codes_ignored(self):
        jobs = [_job(1, 0.0, 1_000.0, state=JobState.FAILED, exit_code=1)]
        errors = [_error(995.0, Xid.GENERAL_SW)]
        analyzer = JobImpactAnalyzer(_database(jobs), errors)
        assert analyzer.classify_jobs()[1][0] is False

    def test_code_outside_the_catalog_counts_in_tables_1_and_2(self):
        jobs = [_job(1, 0.0, 1_000.0, state=JobState.FAILED, exit_code=1)]
        errors = [_error(995.0, 62)]
        assert ErrorStatistics(errors, 1.0, 1).count(62) == 1
        analyzer = JobImpactAnalyzer(_database(jobs), errors)
        assert analyzer.classify_jobs()[1] == (True, (62,))
        assert analyzer.table2() == [Table2Row(62, 1, 1)]


class TestTable2:
    def test_rows_built_from_encounters_and_failures(self):
        jobs = [
            _job(1, 0.0, 1_000.0, state=JobState.NODE_FAIL, exit_code=1),
            _job(2, 2_000.0, 3_000.0),  # encounters but survives
        ]
        errors = [_error(990.0), _error(2_500.0)]
        analyzer = JobImpactAnalyzer(_database(jobs), errors)
        (row,) = analyzer.table2()
        assert row.xid == int(Xid.GSP)
        assert row.jobs_encountering == 2
        assert row.gpu_failed_jobs == 1
        assert row.failure_probability == pytest.approx(0.5)

    def test_total_gpu_failed(self):
        jobs = [_job(1, 0.0, 1_000.0, state=JobState.NODE_FAIL, exit_code=1)]
        analyzer = JobImpactAnalyzer(_database(jobs), [_error(990.0)])
        assert analyzer.total_gpu_failed() == 1

    def test_dataset_table2_probabilities(self, study):
        rows = {r.xid: r for r in study.job_impact().table2()}
        mmu = rows.get(int(Xid.MMU))
        assert mmu is not None
        assert mmu.failure_probability == pytest.approx(0.5867, abs=0.12)


class TestTable3:
    def test_bucket_assignment_and_stats(self):
        jobs = [
            _job(1, 0.0, 600.0),
            _job(2, 0.0, 1_200.0),
            _job(3, 0.0, 600.0, gpus=[("n1", "0000:07:00"), ("n1", "0000:46:00")]),
        ]
        analyzer = JobImpactAnalyzer(_database(jobs), [])
        rows = {r.label: r for r in analyzer.table3()}
        assert rows["1"].count == 2
        assert rows["2-4"].count == 1
        assert rows["1"].mean_minutes == pytest.approx(15.0)
        assert rows["1"].share == pytest.approx(2 / 3)

    def test_ml_hours_classified_by_name(self):
        jobs = [
            _job(1, 0.0, 3_600.0, name="train_resnet50"),
            _job(2, 0.0, 3_600.0, name="namd_run"),
        ]
        analyzer = JobImpactAnalyzer(_database(jobs), [])
        row = analyzer.table3()[0]
        assert row.ml_gpu_hours == pytest.approx(1.0)
        assert row.non_ml_gpu_hours == pytest.approx(1.0)

    def test_empty_bucket_rendered_as_zero(self):
        analyzer = JobImpactAnalyzer(_database([_job(1, 0.0, 10.0)]), [])
        rows = {r.label: r for r in analyzer.table3()}
        assert rows["256+"].count == 0


class TestFigure9:
    def test_elapsed_histogram_partitions_jobs(self):
        jobs = [
            _job(1, 0.0, 300.0),  # 5 min, completed
            _job(2, 0.0, 7_200.0, state=JobState.FAILED, exit_code=1),  # gpu-failed
        ]
        errors = [_error(7_190.0)]
        analyzer = JobImpactAnalyzer(_database(jobs), errors)
        histogram = analyzer.elapsed_histogram(edges_minutes=(0, 60, 240))
        assert histogram.completed == (1, 0)
        assert histogram.gpu_failed == (0, 1)

    def test_lost_node_hours(self):
        jobs = [_job(1, 0.0, 7_200.0, state=JobState.FAILED, exit_code=1,
                     gpus=[("n1", "0000:07:00"), ("n2", "0000:07:00")])]
        errors = [_error(7_190.0)]
        analyzer = JobImpactAnalyzer(_database(jobs), errors)
        assert analyzer.lost_node_hours() == pytest.approx(4.0)

    def test_errors_vs_duration_series(self):
        jobs = [_job(1, 0.0, 120_000.0)]  # 2,000 min, completed
        errors = [_error(t) for t in (1_000.0, 2_000.0, 3_000.0)]
        analyzer = JobImpactAnalyzer(_database(jobs), errors)
        series = analyzer.errors_vs_duration(edges_minutes=(0, 1_000, 4_000))
        assert series["completed"][1][1] == pytest.approx(3.0)

    def test_non_gpu_failures_excluded_from_figure9b(self):
        jobs = [_job(1, 0.0, 60_000.0, state=JobState.FAILED, exit_code=1)]
        analyzer = JobImpactAnalyzer(_database(jobs), [])
        series = analyzer.errors_vs_duration(edges_minutes=(0, 4_000))
        assert series["completed"][0][1] == 0.0
        assert series["gpu_failed"][0][1] == 0.0


class _PerJobReference:
    """The per-job join ``JobImpactAnalyzer`` replaced, kept as its
    reference: two ``searchsorted`` calls per (job, GPU) and per query."""

    def __init__(self, database, errors):
        self.database = database
        per_gpu = {}
        for error in errors:
            if is_studied(error.xid):
                per_gpu.setdefault(error.gpu_key, []).append((error.time, error.xid))
        self._gpu_times = {}
        self._gpu_xids = {}
        for gpu, pairs in per_gpu.items():
            pairs.sort()
            self._gpu_times[gpu] = np.array([t for t, _ in pairs])
            self._gpu_xids[gpu] = np.array([x for _, x in pairs], dtype=np.int64)

    def errors_on_job(self, job, start=None, end=None):
        lo = job.start_time if start is None else start
        hi = job.end_time if end is None else end
        found = []
        for gpu in job.gpus:
            times = self._gpu_times.get(gpu)
            if times is None:
                continue
            left = int(np.searchsorted(times, lo, side="left"))
            right = int(np.searchsorted(times, hi, side="right"))
            found.extend(int(x) for x in self._gpu_xids[gpu][left:right])
        return found

    def classify_jobs(self):
        out = {}
        for job in self.database.jobs:
            if job.succeeded:
                out[job.job_id] = (False, ())
                continue
            responsible = self.errors_on_job(
                job, start=job.end_time - ATTRIBUTION_WINDOW, end=job.end_time
            )
            out[job.job_id] = (bool(responsible), tuple(sorted(set(responsible))))
        return out

    def gpu_failed_jobs(self):
        classified = self.classify_jobs()
        return [j for j in self.database.jobs if classified[j.job_id][0]]

    def table2(self):
        classified = self.classify_jobs()
        encountering = {}
        failed = {}
        for job in self.database.jobs:
            for xid in set(self.errors_on_job(job)):
                encountering.setdefault(xid, set()).add(job.job_id)
            is_failed, responsible = classified[job.job_id]
            if is_failed:
                for xid in responsible:
                    failed.setdefault(xid, set()).add(job.job_id)
                    encountering.setdefault(xid, set()).add(job.job_id)
        rows = [
            Table2Row(xid, len(failed.get(xid, set())), len(jobs))
            for xid, jobs in encountering.items()
        ]
        rows.sort(key=lambda r: r.gpu_failed_jobs, reverse=True)
        return rows

    def table3(self):
        total = len(self.database.jobs) or 1
        rows = []
        for bucket in SIZE_BUCKETS:
            jobs = [
                j for j in self.database.jobs
                if bucket.min_gpus <= j.n_gpus <= bucket.max_gpus
            ]
            if not jobs:
                rows.append(Table3Row(bucket.label, 0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0))
                continue
            elapsed = np.array([j.elapsed_minutes for j in jobs])
            rows.append(Table3Row(
                label=bucket.label,
                count=len(jobs),
                share=len(jobs) / total,
                mean_minutes=float(elapsed.mean()),
                p50_minutes=float(np.percentile(elapsed, 50)),
                p99_minutes=float(np.percentile(elapsed, 99)),
                ml_gpu_hours=sum(j.gpu_hours for j in jobs if classify_ml(j.name)),
                non_ml_gpu_hours=sum(
                    j.gpu_hours for j in jobs if not classify_ml(j.name)
                ),
            ))
        return rows

    def elapsed_histogram(self, edges_minutes=(0, 10, 60, 240, 1000, 2000, 4000, 8000)):
        classified = self.classify_jobs()
        edges = np.asarray(edges_minutes, dtype=float)
        completed, _ = np.histogram(
            [j.elapsed_minutes for j in self.database.jobs if j.succeeded], bins=edges
        )
        failed, _ = np.histogram(
            [j.elapsed_minutes for j in self.database.jobs if classified[j.job_id][0]],
            bins=edges,
        )
        return ElapsedHistogram(
            tuple(edges), tuple(int(c) for c in completed), tuple(int(c) for c in failed)
        )

    def lost_node_hours(self):
        return sum(j.node_hours for j in self.gpu_failed_jobs())

    def errors_vs_duration(self, edges_minutes=(0, 60, 500, 1000, 2000, 4000, 90000)):
        classified = self.classify_jobs()
        edges = list(edges_minutes)
        sums = {"completed": [0.0] * (len(edges) - 1), "gpu_failed": [0.0] * (len(edges) - 1)}
        counts = {"completed": [0] * (len(edges) - 1), "gpu_failed": [0] * (len(edges) - 1)}
        for job in self.database.jobs:
            is_failed = classified[job.job_id][0]
            if not is_failed and not job.succeeded:
                continue
            key = "gpu_failed" if is_failed else "completed"
            b = bisect_right(edges, job.elapsed_minutes) - 1
            if 0 <= b < len(edges) - 1:
                sums[key][b] += len(self.errors_on_job(job))
                counts[key][b] += 1
        return {
            key: [
                (
                    (edges[b] + edges[b + 1]) / 2.0,
                    sums[key][b] / counts[key][b] if counts[key][b] else 0.0,
                )
                for b in range(len(edges) - 1)
            ]
            for key in ("completed", "gpu_failed")
        }


_GPUS = (("n1", "0000:07:00"), ("n1", "0000:46:00"), ("n2", "0000:07:00"),
         ("n2", "0000:46:00"), ("n3", "0000:07:00"))
_FATES = (
    (JobState.COMPLETED, 0),
    (JobState.COMPLETED, 1),
    (JobState.FAILED, 1),
    (JobState.NODE_FAIL, 139),
)
_NAMES = ("train_resnet50", "namd_run", "gpt_finetune", "lammps")
# 13/43 are user codes, 62 is outside the catalog; 31 and 48 iterate out of
# a set in the opposite order to their first appearance.
_XIDS = (13, 31, 43, 48, 62, 74, 79, 94, 95, 119, 122)
# On one 5-second grid, errors land exactly on job starts, ends and
# end - 20 s, and jobs on one GPU touch and overlap.
_grid = st.integers(-4, 64).map(lambda k: 5.0 * k)
_job_specs = st.lists(
    st.tuples(
        st.integers(0, 60).map(lambda k: 5.0 * k),
        st.sampled_from((0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 60.0, 300.0, 7_200.0,
                         6_000_000.0)),
        st.lists(st.integers(0, len(_GPUS) - 1), min_size=1, max_size=4, unique=True),
        st.integers(0, len(_FATES) - 1),
        st.integers(0, len(_NAMES) - 1),
    ),
    max_size=12,
)
_error_specs = st.lists(
    st.tuples(st.integers(0, len(_GPUS) - 1), _grid, st.sampled_from(_XIDS)),
    max_size=25,
)


@given(job_specs=_job_specs, error_specs=_error_specs)
# A failed 10-second job blamed for an error 5 s before its start.
@example(job_specs=[(100.0, 10.0, [0], 2, 0)], error_specs=[(0, 95.0, 31)])
# One job meets XID 31, then 48: tied Table-2 rows keep the set's order.
@example(job_specs=[(0.0, 300.0, [1, 0], 0, 1)],
         error_specs=[(0, 10.0, 48), (1, 5.0, 31), (1, 20.0, 62)])
# 31 and 79 share a slot of a small set, so its order is insertion order:
# the second GPU's code is met first, in allocation order.
@example(job_specs=[(0.0, 300.0, [1, 0], 0, 1), (0.0, 300.0, [2, 3], 0, 1)],
         error_specs=[(0, 10.0, 79), (1, 50.0, 31), (3, 5.0, 79), (2, 60.0, 31)])
@settings(max_examples=300, deadline=None)
def test_join_matches_the_per_job_reference(job_specs, error_specs):
    jobs = [
        _job(job_id, start, start + duration, state=_FATES[fate][0],
             exit_code=_FATES[fate][1], gpus=[_GPUS[g] for g in gpus],
             name=_NAMES[name])
        for job_id, (start, duration, gpus, fate, name) in enumerate(job_specs, 1)
    ]
    errors = [_error(t, xid, *_GPUS[g]) for g, t, xid in error_specs]
    database = _database(jobs)
    analyzer = JobImpactAnalyzer(database, errors)
    reference = _PerJobReference(database, errors)
    assert list(analyzer.classify_jobs().items()) == list(
        reference.classify_jobs().items()
    )
    for output in ("table2", "table3", "elapsed_histogram", "errors_vs_duration",
                   "lost_node_hours"):
        assert repr(getattr(analyzer, output)()) == repr(getattr(reference, output)()), output
