"""Paper claims the ``verify`` catalog has no row for, checked end to end.

``repro-delta verify`` gates every claim in ``PAPER_EXPECTATIONS``.  The
tests here check the published shapes it does not cover, on synthesized
data run through the whole pipeline.  A claim runs on the shared scale-0.02
dataset when it holds there.  The few that need more events (all ten
Table-1 codes, per-code persistence, rare-code job failures, the longest
jobs) run on one scale-0.1 dataset built once for this module.
"""

import pytest

from repro.core import DeltaStudy
from repro.core.h100 import H100Analyzer
from repro.datasets import DeltaDatasetConfig, synthesize_delta
from repro.faults import AMPERE_CALIBRATION
from repro.faults.calibration import PAPER_TABLE2
from repro.faults.variants import burned_in_profile
from repro.faults.xid import Xid
from repro.slurm.workload import SIZE_BUCKETS


@pytest.fixture(scope="module")
def tenth_study():
    """Scale 0.1, seed 7: enough rare-code events and long jobs."""
    study = DeltaStudy.from_dataset(synthesize_delta(scale=0.1, seed=7))
    study.errors
    return study


@pytest.fixture(scope="module")
def graph(study):
    return study.propagation().analyze()


def _burned_in_mtbe(scale, seed, cluster):
    """Overall MTBE of a world re-synthesized without the defective parts."""
    dataset = synthesize_delta(
        scale=scale,
        seed=seed,
        profile=burned_in_profile(AMPERE_CALIBRATION),
        config=DeltaDatasetConfig(scale=scale, seed=seed, with_jobs=False),
        cluster=cluster,
    )
    return DeltaStudy.from_dataset(dataset).error_statistics().overall_mtbe_node_hours()


class TestTable1:
    def test_all_ten_codes_appear(self, tenth_study):
        assert len(tenth_study.error_statistics().table1_rows()) == 10

    def test_uncontained_dominates_then_mmu(self, study):
        # Section 4.1 (i): uncontained ~61%, MMU ~30%, NVLink ~5%, GSP ~3%.
        stats = study.error_statistics()
        total = stats.total_count
        assert stats.count(int(Xid.UNCONTAINED)) / total == pytest.approx(0.61, abs=0.06)
        assert stats.count(int(Xid.MMU)) / total == pytest.approx(0.30, abs=0.05)
        assert stats.count(int(Xid.NVLINK)) / total == pytest.approx(0.05, abs=0.02)
        assert stats.count(int(Xid.GSP)) / total == pytest.approx(0.034, abs=0.015)

    def test_persistence_shape_per_code(self, tenth_study):
        stats = tenth_study.error_statistics()
        for xid, cal in AMPERE_CALIBRATION.xids.items():
            summary = stats.persistence_summary(int(xid))
            if summary.count < 50:
                continue
            assert summary.p50 == pytest.approx(cal.paper_persistence_p50, rel=0.35), xid
            assert summary.mean == pytest.approx(cal.paper_persistence_mean, rel=0.45), xid

    def test_uncontained_mean_exceeds_p95(self, study):
        summary = study.error_statistics().persistence_summary(int(Xid.UNCONTAINED))
        assert summary.mean > summary.p95


class TestTable2:
    @pytest.fixture(scope="class")
    def rows(self, study):
        return study.job_impact().table2()

    @pytest.fixture(scope="class")
    def tenth_rows(self, tenth_study):
        return {r.xid: r for r in tenth_study.job_impact().table2()}

    def test_gsp_always_fatal(self, tenth_rows):
        # No application-level handling exists for GSP errors.
        gsp = tenth_rows[int(Xid.GSP)]
        assert gsp.jobs_encountering >= 3
        assert gsp.failure_probability > 0.9

    def test_nvlink_is_survivable(self, tenth_rows):
        # Section 5.3: NVLink and MMU are the codes jobs sometimes survive.
        nvlink = tenth_rows[int(Xid.NVLINK)]
        assert nvlink.jobs_encountering >= 5
        assert nvlink.failure_probability < 0.95

    def test_mmu_dominates_gpu_failed_jobs(self, rows):
        assert rows[0].xid == int(Xid.MMU)  # sorted by failed-job count

    def test_encounter_ordering_matches_paper(self, rows, dataset):
        # Encounter volume ordering: MMU >> uncontained >> the rest.
        by_xid = {r.xid: r for r in rows}
        mmu = by_xid[int(Xid.MMU)].jobs_encountering
        paper_mmu = PAPER_TABLE2[Xid.MMU].jobs_encountering * dataset.config.scale
        assert mmu == pytest.approx(paper_mmu, rel=0.3)
        for xid in (Xid.UNCONTAINED, Xid.GSP, Xid.NVLINK):
            row = by_xid.get(int(xid))
            if row is not None:
                assert row.jobs_encountering < mmu


class TestTable3:
    @pytest.fixture(scope="class")
    def rows(self, study):
        return {r.label: r for r in study.job_impact().table3()}

    def test_count_shares_match_paper(self, rows):
        paper = {b.label: b.count_share for b in SIZE_BUCKETS}
        for label in ("2-4", "4-8", "8-32"):
            assert rows[label].share == pytest.approx(paper[label], abs=0.015), label

    def test_elapsed_medians_match_paper(self, rows):
        paper = {b.label: b.p50_minutes for b in SIZE_BUCKETS}
        for label in ("1", "2-4", "8-32"):
            assert rows[label].p50_minutes == pytest.approx(paper[label], rel=0.25), label

    def test_elapsed_means_match_paper(self, rows):
        paper = {b.label: b.mean_minutes for b in SIZE_BUCKETS}
        for label in ("1", "2-4", "8-32"):
            assert rows[label].mean_minutes == pytest.approx(paper[label], rel=0.35), label

    def test_walltime_cap_visible_in_multi_gpu_p99(self, rows):
        # Multi-GPU queues pile up at the 2,880-minute cap.
        assert rows["2-4"].p99_minutes == pytest.approx(2_880.0, rel=0.02)

    def test_single_gpu_jobs_carry_a_minority_of_gpu_hours(self, rows):
        # 70% of jobs are single-GPU but they carry a much smaller share of
        # GPU-hours (Table 3's hour columns).
        total_hours = sum(r.ml_gpu_hours + r.non_ml_gpu_hours for r in rows.values())
        single_hours = rows["1"].ml_gpu_hours + rows["1"].non_ml_gpu_hours
        assert single_hours / total_hours < 0.55

    def test_non_ml_hours_exceed_ml_hours(self, rows):
        # Paper totals: ~1.0M ML vs ~8.1M non-ML GPU-hours.
        ml = sum(r.ml_gpu_hours for r in rows.values())
        non_ml = sum(r.non_ml_gpu_hours for r in rows.values())
        assert non_ml > 3 * ml

    def test_largest_jobs_rare(self, rows):
        assert rows["128-256"].count + rows["256+"].count < rows["8-32"].count


class TestFigure5:
    def test_pmu_to_mmu_propagation_is_fast(self, graph):
        # Close time proximity suggests causality (Section 4.4).
        assert 0.0 < graph.mean_delay(Xid.PMU_SPI, Xid.MMU) < 10.0

    def test_fallen_off_bus_terminal(self, graph):
        assert graph.terminal_probability(Xid.FALLEN_OFF_BUS) > 0.9

    def test_mmu_rarely_propagates_further(self, graph):
        # MMU is the sink of Figure 5's paths, not a source.
        outgoing = sum(
            graph.probability(src, dst) for src, dst in graph.intra_edges if src == int(Xid.MMU)
        )
        assert outgoing < 0.35


class TestFigure6:
    def test_nvlink_errors_unpredictable(self, graph):
        # Section 4.4.2: "we found no preceding hardware errors before NVLink
        # errors"; recurrences of the code itself are its only predecessors.
        inflow = sum(
            stats.count
            for (src, dst), stats in graph.intra_edges.items()
            if dst == int(Xid.NVLINK) and src != int(Xid.NVLINK)
        )
        assert inflow <= graph.source_counts.get(int(Xid.NVLINK), 0) * 0.02

    def test_nvlink_mtbe_per_node(self, study):
        stats = study.error_statistics()
        assert stats.mtbe_per_node_hours(int(Xid.NVLINK)) == pytest.approx(1_415, rel=0.15)


class TestFigure7:
    def test_recovery_chains_are_fast(self, graph):
        assert graph.mean_delay(Xid.DBE, Xid.RRE) < 10.0

    def test_uncontained_errors_standalone(self, graph):
        # Figure 7's right side: uncontained errors lack succeeding errors.
        assert graph.probability(Xid.UNCONTAINED, Xid.UNCONTAINED) < 0.1
        assert graph.terminal_probability(Xid.UNCONTAINED) > 0.85


class TestFigure9:
    def test_failures_prevalent_in_short_jobs(self, study):
        histogram = study.job_impact().elapsed_histogram()
        short_failed = sum(histogram.gpu_failed[:4])  # < 1,000 minutes
        long_failed = sum(histogram.gpu_failed[4:])
        assert short_failed > 3 * max(long_failed, 1)

    def test_long_completers_accumulate_errors(self, tenth_study):
        # Figure 9b: >4,000-minute completed jobs face multiple errors yet finish.
        series = tenth_study.job_impact().errors_vs_duration()
        long_bin = series["completed"][-1][1]
        short_bin = series["completed"][0][1]
        assert long_bin > 0.5
        assert long_bin > 10 * max(short_bin, 0.01)

    def test_some_long_jobs_complete_despite_errors(self, study):
        histogram = study.job_impact().elapsed_histogram(edges_minutes=(4_000, 50_000))
        assert histogram.completed[0] > 0

    def test_heavy_tail_reaches_long_reboots(self, study):
        dist = study.availability().unavailability_distribution()
        assert dist["max_hours"] > 5.0
        assert dist["p50_hours"] < 0.3


class TestSection55:
    def test_few_gpus_removed(self, study):
        # The counterfactual culls a handful of defective parts, not the fleet.
        assert 1 <= len(study.counterfactual().analyze().removed_gpus) <= 40

    def test_burned_in_world_matches_paper_scenario1(self, delta_cluster):
        # Re-synthesized without defective parts: 67 -> 190 node-hours.
        mtbe = _burned_in_mtbe(0.02, 1234, delta_cluster)
        assert mtbe == pytest.approx(190.0, rel=0.25)

    def test_generative_agrees_with_analytic_exclusion(self, tenth_study, delta_cluster):
        """Re-synthesis and the paper's exclusion arithmetic land within 25%."""
        analytic = tenth_study.counterfactual().analyze()
        assert _burned_in_mtbe(0.1, 17, delta_cluster) == pytest.approx(
            analytic.without_offenders_mtbe_node_hours, rel=0.25
        )


class TestSection6:
    def test_h100_mtbe_far_above_ampere(self, h100_study, study):
        h100 = H100Analyzer(h100_study.error_statistics()).report().mtbe_node_hours
        # "significantly higher than A100 and A40": ~60x in the paper.
        assert h100 > 20 * study.error_statistics().overall_mtbe_node_hours()
