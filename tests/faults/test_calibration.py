"""Calibration constants: internal consistency against the paper's tables."""

import numpy as np
import pytest

from repro.faults.calibration import (
    AMPERE_CALIBRATION,
    AMPERE_KERNEL,
    H100_CALIBRATION,
    PAPER_TABLE2,
    PAPER_TOTAL_ERRORS,
    KernelRow,
    OffenderSkew,
    PersistenceModel,
    RepairModelParams,
    Transition,
    DelayModel,
    expected_totals,
    solve_root_counts,
)
from repro.faults.xid import Xid
from repro.util.stats import lognormal_from_mean_p50


class TestAmpereProfile:
    def test_total_count_matches_paper(self):
        assert AMPERE_CALIBRATION.total_count() == PAPER_TOTAL_ERRORS

    def test_reference_population(self):
        assert AMPERE_CALIBRATION.reference_node_count == 206
        assert AMPERE_CALIBRATION.window_days == 855.0

    def test_mtbe_identity_per_code(self):
        # count x system-MTBE == window hours, for every Table-1 row.
        for xid, cal in AMPERE_CALIBRATION.xids.items():
            mtbe = AMPERE_CALIBRATION.mtbe_all_nodes_hours(xid)
            assert mtbe * cal.count == pytest.approx(855.0 * 24.0)
            # Consistency with the paper's printed MTBE (rounding tolerance).
            assert mtbe == pytest.approx(cal.paper_mtbe_all_nodes_hours, rel=0.02)

    def test_per_node_mtbe_is_206x_system(self):
        for cal in AMPERE_CALIBRATION.xids.values():
            assert cal.paper_mtbe_per_node_hours == pytest.approx(
                cal.paper_mtbe_all_nodes_hours * 206, rel=0.02
            )

    def test_scaled_counts_linear(self):
        half = AMPERE_CALIBRATION.scaled_counts(0.5)
        assert half[Xid.UNCONTAINED] == pytest.approx(38_905 / 2)

    def test_scale_must_be_positive(self):
        with pytest.raises(ValueError):
            AMPERE_CALIBRATION.scaled_counts(0.0)


class TestKernel:
    def test_rows_probability_mass_valid(self):
        for row in AMPERE_KERNEL.values():
            assert row.terminal_prob >= -1e-9

    def test_gsp_row_matches_figure5(self):
        row = AMPERE_KERNEL[Xid.GSP]
        to_pmu = [t for t in row.transitions if t.target is Xid.PMU_SPI]
        assert len(to_pmu) == 1 and to_pmu[0].prob == pytest.approx(0.01)
        # 0.99 of GSP outcomes are recurrence-or-inoperable.
        recurrence = sum(t.prob for t in row.transitions if t.target is Xid.GSP)
        assert recurrence + row.inoperable_prob == pytest.approx(0.99)

    def test_pmu_row_matches_figure5(self):
        row = AMPERE_KERNEL[Xid.PMU_SPI]
        probs = {t.target: t.prob for t in row.transitions}
        assert probs[Xid.MMU] == pytest.approx(0.82)
        assert probs[Xid.PMU_SPI] == pytest.approx(0.18)

    def test_dbe_row_matches_figure7(self):
        row = AMPERE_KERNEL[Xid.DBE]
        probs = {t.target: t.prob for t in row.transitions}
        assert probs[Xid.RRE] == pytest.approx(0.50)

    def test_overall_dbe_alleviation_near_paper(self):
        dbe = {t.target: t.prob for t in AMPERE_KERNEL[Xid.DBE].transitions}
        rrf = {t.target: t.prob for t in AMPERE_KERNEL[Xid.RRF].transitions}
        alleviated = dbe[Xid.RRE] + dbe[Xid.RRF] * rrf[Xid.CONTAINED]
        assert alleviated == pytest.approx(0.706, abs=0.02)

    def test_same_code_repeat_delays_exceed_coalescing_window(self):
        for row in AMPERE_KERNEL.values():
            for transition in row.transitions:
                if transition.target is row.xid:
                    assert transition.delay.low > 5.0

    def test_overfull_row_rejected(self):
        with pytest.raises(ValueError):
            KernelRow(
                Xid.MMU,
                transitions=(
                    Transition(Xid.MMU, 0.7, DelayModel(7, 9)),
                    Transition(Xid.DBE, 0.6, DelayModel(1, 2)),
                ),
            )


class TestRootSolving:
    def test_roots_reproduce_totals(self):
        totals = {xid: float(c.count) for xid, c in AMPERE_CALIBRATION.xids.items()}
        roots = solve_root_counts(totals, AMPERE_KERNEL)
        reproduced = expected_totals(roots, AMPERE_KERNEL)
        for xid, target in totals.items():
            assert reproduced[xid] == pytest.approx(target, rel=0.01), xid

    def test_h100_roots_reproduce_totals(self):
        totals = {xid: float(c.count) for xid, c in H100_CALIBRATION.xids.items()}
        reproduced = expected_totals(
            solve_root_counts(totals, H100_CALIBRATION.kernel), H100_CALIBRATION.kernel
        )
        for xid, target in totals.items():
            assert reproduced[xid] == pytest.approx(target, abs=max(0.02 * target, 1.0)), xid

    def test_roots_nonnegative(self):
        totals = {xid: float(c.count) for xid, c in AMPERE_CALIBRATION.xids.items()}
        for value in solve_root_counts(totals, AMPERE_KERNEL).values():
            assert value >= 0.0

    def test_gsp_to_pmu_inflow_is_about_21_cases(self):
        # Paper: 21 of 2,136 GSP errors spilled into PMU SPI errors.
        assert 2_136 * 0.01 == pytest.approx(21, abs=1)


class TestPersistenceModels:
    @pytest.mark.parametrize("xid", list(AMPERE_CALIBRATION.xids))
    def test_sampled_moments_near_paper(self, xid):
        cal = AMPERE_CALIBRATION.xids[xid]
        rng = np.random.default_rng(0)
        sample = cal.persistence.sample(rng, 120_000)
        assert np.median(sample) == pytest.approx(cal.paper_persistence_p50, rel=0.25)
        assert sample.mean() == pytest.approx(cal.paper_persistence_mean, rel=0.30)

    def test_uncontained_mean_exceeds_p95(self):
        # The Table-1 paradox the mixture must reproduce.
        cal = AMPERE_CALIBRATION.xids[Xid.UNCONTAINED]
        rng = np.random.default_rng(1)
        sample = cal.persistence.sample(rng, 200_000)
        assert sample.mean() > np.percentile(sample, 95)

    def test_durations_respect_cutoff(self):
        cal = AMPERE_CALIBRATION.xids[Xid.UNCONTAINED]
        rng = np.random.default_rng(2)
        assert cal.persistence.sample(rng, 50_000).max() <= 86_400.0

    def test_model_mean_property(self):
        model = PersistenceModel(
            body=lognormal_from_mean_p50(10.0, 5.0), tail_prob=0.0
        )
        assert model.mean == pytest.approx(10.0)


class TestOffenderSkew:
    def test_invalid_shares_rejected(self):
        with pytest.raises(ValueError):
            OffenderSkew(n_offenders=1, offender_share=1.5)
        with pytest.raises(ValueError):
            OffenderSkew(n_offenders=0, offender_share=0.5)

    def test_uncontained_offenders_match_section_4_2(self):
        skew = AMPERE_CALIBRATION.xids[Xid.UNCONTAINED].offenders
        # 4 GPUs with uncontained errors; one GPU contributed 99%.
        assert skew.n_offenders == 4
        assert skew.top_share == pytest.approx(0.99)


class TestRepairModel:
    def test_mean_near_paper_mttr(self):
        params = RepairModelParams()
        rng = np.random.default_rng(3)
        sample = params.sample_hours(rng, 300_000)
        assert sample.mean() == pytest.approx(0.3, abs=0.06)

    def test_tail_reaches_long_reboots(self):
        params = RepairModelParams()
        rng = np.random.default_rng(4)
        sample = params.sample_hours(rng, 300_000)
        # Figure 1's 23-hour case must be reachable but rare.
        assert sample.max() > 20.0
        assert np.mean(sample > 20.0) < 0.01

    def test_capped_at_48_hours(self):
        params = RepairModelParams()
        rng = np.random.default_rng(5)
        assert params.sample_hours(rng, 300_000).max() <= 48.0


class TestH100Profile:
    def test_event_budget_gives_4114_hour_mtbe(self):
        total = H100_CALIBRATION.total_count()
        mtbe = H100_CALIBRATION.window_node_hours / total
        assert total == 112
        assert mtbe == pytest.approx(4_114, rel=0.01)

    def test_no_rre_in_h100(self):
        # Section 6: DBE/RRF without RREs is the anomaly.
        assert Xid.RRE not in H100_CALIBRATION.xids
        assert H100_CALIBRATION.xids[Xid.DBE].count == 10
        assert H100_CALIBRATION.xids[Xid.RRF].count == 5

    def test_xid136_dominates(self):
        counts = {x: c.count for x, c in H100_CALIBRATION.xids.items()}
        assert max(counts, key=counts.get) is Xid.XID_136


class TestPaperTable2Constants:
    def test_probabilities_consistent(self):
        for xid, (failed, encountering, percent) in PAPER_TABLE2.items():
            assert failed / encountering * 100 == pytest.approx(percent, abs=0.02), xid

    def test_profile_uses_table2_probabilities(self):
        for xid, (_, _, percent) in PAPER_TABLE2.items():
            cal = AMPERE_CALIBRATION.xids[xid]
            assert cal.job_failure_prob == pytest.approx(percent / 100.0, abs=0.005)
