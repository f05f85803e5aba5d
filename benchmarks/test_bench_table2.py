"""Table 2: job-failure probability given each XID."""

import pytest

from repro.core.jobimpact import JobImpactAnalyzer
from repro.core.report import table2_result
from repro.faults.calibration import PAPER_TABLE2
from repro.faults.xid import Xid


@pytest.fixture(scope="module")
def impact(bench_study):
    analyzer = bench_study.job_impact()
    analyzer.classify_jobs()
    return analyzer


def test_bench_table2_classification(benchmark, bench_study, report_sink):
    database = bench_study.slurm_db
    errors = bench_study.errors

    def classify():
        return JobImpactAnalyzer(database, errors).table2()

    rows = benchmark.pedantic(classify, rounds=3, iterations=1)
    assert rows

    report_sink.append(table2_result(JobImpactAnalyzer(database, errors)).render_text())


def test_mmu_failure_probability(impact):
    rows = {r.xid: r for r in impact.table2()}
    assert rows[int(Xid.MMU)].failure_probability == pytest.approx(0.5867, abs=0.08)


def test_hard_codes_always_fatal(impact):
    # GSP / RRF / uncontained: no application-level handling exists.
    rows = {r.xid: r for r in impact.table2()}
    for xid in (Xid.GSP, Xid.UNCONTAINED):
        row = rows.get(int(xid))
        if row and row.jobs_encountering >= 3:
            assert row.failure_probability > 0.9, xid


def test_nvlink_and_mmu_are_the_survivable_codes(impact):
    # Paper Section 5.3: only NVLink and MMU errors are sometimes handled.
    rows = {r.xid: r for r in impact.table2()}
    mmu = rows[int(Xid.MMU)]
    assert mmu.failure_probability < 0.8
    nvlink = rows.get(int(Xid.NVLINK))
    if nvlink and nvlink.jobs_encountering >= 5:
        assert nvlink.failure_probability < 0.95


def test_total_gpu_failed_scales_with_paper(impact, bench_scale):
    assert impact.total_gpu_failed() == pytest.approx(4_322 * bench_scale, rel=0.35)


def test_mmu_dominates_gpu_failed_jobs(impact):
    rows = impact.table2()
    assert rows[0].xid == int(Xid.MMU)  # sorted by failed-job count


def test_success_rate_near_paper(impact):
    assert impact.success_rate() == pytest.approx(0.7468, abs=0.01)


def test_encounter_ordering_matches_paper(impact, bench_scale):
    # Encounter volume ordering: MMU >> uncontained >> the rest.
    rows = {r.xid: r for r in impact.table2()}
    mmu = rows[int(Xid.MMU)].jobs_encountering
    paper_mmu = PAPER_TABLE2[Xid.MMU][1] * bench_scale
    assert mmu == pytest.approx(paper_mmu, rel=0.3)
    for xid in (Xid.UNCONTAINED, Xid.GSP, Xid.NVLINK):
        row = rows.get(int(xid))
        if row is not None:
            assert row.jobs_encountering < mmu
