"""Table 3: job distribution, elapsed statistics, ML vs non-ML GPU-hours."""

import pytest

from repro.core.jobimpact import JobImpactAnalyzer
from repro.core.report import table3_result
from repro.slurm.workload import SIZE_BUCKETS


@pytest.fixture(scope="module")
def rows(bench_study):
    return {r.label: r for r in bench_study.job_impact().table3()}


def test_bench_table3(benchmark, bench_study, report_sink):
    impact = bench_study.job_impact()
    table = benchmark(impact.table3)
    assert len(table) == len(SIZE_BUCKETS)
    report_sink.append(table3_result(impact).render_text())


def test_count_shares_match_paper(rows):
    paper = {b.label: b.count_share for b in SIZE_BUCKETS}
    for label in ("1", "2-4", "4-8", "8-32"):
        assert rows[label].share == pytest.approx(paper[label], abs=0.015), label


def test_elapsed_medians_match_paper(rows):
    paper = {b.label: b.p50_minutes for b in SIZE_BUCKETS}
    for label in ("1", "2-4", "8-32"):
        assert rows[label].p50_minutes == pytest.approx(paper[label], rel=0.25), label


def test_elapsed_means_match_paper(rows):
    paper = {b.label: b.mean_minutes for b in SIZE_BUCKETS}
    for label in ("1", "2-4", "8-32"):
        assert rows[label].mean_minutes == pytest.approx(paper[label], rel=0.35), label


def test_walltime_cap_visible_in_multi_gpu_p99(rows):
    # Multi-GPU queues pile up at the 2,880-minute cap.
    assert rows["2-4"].p99_minutes == pytest.approx(2_880.0, rel=0.02)


def test_single_gpu_jobs_dominate_gpu_hours_less_than_count(rows):
    # 70% of jobs are single-GPU but they carry a much smaller share of
    # GPU-hours (Table 3's hour columns).
    total_hours = sum(r.ml_gpu_hours + r.non_ml_gpu_hours for r in rows.values())
    single_hours = rows["1"].ml_gpu_hours + rows["1"].non_ml_gpu_hours
    assert rows["1"].share > 0.65
    assert single_hours / total_hours < 0.55


def test_non_ml_hours_exceed_ml_hours(rows):
    # Paper totals: ~1.0M ML vs ~8.1M non-ML GPU-hours.
    ml = sum(r.ml_gpu_hours for r in rows.values())
    non_ml = sum(r.non_ml_gpu_hours for r in rows.values())
    assert non_ml > 3 * ml


def test_largest_jobs_rare(rows):
    assert rows["128-256"].count + rows["256+"].count < rows["8-32"].count
