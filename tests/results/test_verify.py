"""The paper-fidelity gate: pass/fail/skip semantics and miscalibration."""

import dataclasses

import pytest

from repro.results import (
    ExperimentResult,
    Metric,
    PaperExpectation,
    Tolerance,
    verify_result,
    verify_results,
)
from repro.results.verify import FAIL, PASS, SKIP


def _result(*metrics: Metric) -> ExperimentResult:
    return ExperimentResult(
        experiment_id="table1",
        paper_artifact="Table 1",
        title="t",
        renderer="table1",
        metrics=metrics,
    )


def _metric(value, expected=67.0, rel=0.15, support=None, kind="two-sided"):
    return Metric(
        name="mtbe",
        value=value,
        support=support,
        expectation=PaperExpectation(
            value=expected, tolerance=Tolerance(rel=rel, kind=kind), source="T1"
        ),
    )


class TestVerifyResult:
    def test_in_band_passes(self):
        (check,) = verify_result(_result(_metric(66.3)))
        assert check.status == PASS

    def test_out_of_band_fails(self):
        (check,) = verify_result(_result(_metric(120.0)))
        assert check.status == FAIL
        assert check.upper is not None and check.measured > check.upper

    def test_nan_fails(self):
        (check,) = verify_result(_result(_metric(float("nan"))))
        assert check.status == FAIL
        assert "NaN" in check.reason

    def test_low_support_skips_instead_of_failing(self):
        (check,) = verify_result(_result(_metric(120.0, support=3)))
        assert check.status == SKIP
        assert "support" in check.reason

    def test_min_support_is_tunable(self):
        (check,) = verify_result(
            _result(_metric(66.3, support=3)), min_support=2
        )
        assert check.status == PASS

    def test_tolerance_scale_widens_bands(self):
        assert verify_result(_result(_metric(90.0)))[0].status == FAIL
        relaxed = verify_result(_result(_metric(90.0)), tolerance_scale=3.0)
        assert relaxed[0].status == PASS

    def test_min_kind_only_bounds_below(self):
        assert verify_result(
            _result(_metric(500.0, expected=30.0, rel=0.2, kind="min"))
        )[0].status == PASS
        assert verify_result(
            _result(_metric(10.0, expected=30.0, rel=0.2, kind="min"))
        )[0].status == FAIL

    def test_unannotated_metrics_are_ignored(self):
        assert verify_result(_result(Metric(name="plain", value=1))) == []


class TestVerifyResults:
    def test_aggregates_and_summarizes(self):
        report = verify_results(
            [_result(_metric(66.3)), _result(_metric(200.0))]
        )
        assert report.n_pass == 1 and report.n_fail == 1 and not report.ok
        assert [c.status for c in report.checks].count("fail") == 1
        table = report.render_table()
        assert "Paper-fidelity verification" in table
        assert "1 passed, 1 failed" in table

    def test_all_green_report_is_ok(self):
        report = verify_results([_result(_metric(66.3))])
        assert report.ok and report.n_fail == 0


class TestInjectedMiscalibration:
    """A deliberately miscalibrated experiment must trip the gate."""

    def test_real_experiment_with_corrupted_metric_fails(self, study):
        from repro.experiments import run_experiment

        result = run_experiment("table1", study, scale=0.02, seed=1234)
        assert verify_results([result], tolerance_scale=3.0).ok

        # inject a miscalibration: the measured MTBE drifts far off-paper
        corrupted = dataclasses.replace(
            result,
            metrics=tuple(
                dataclasses.replace(m, value=m.numeric * 50.0)
                if m.name == "overall_mtbe_node_hours" else m
                for m in result.metrics
            ),
        )
        report = verify_results([corrupted], tolerance_scale=3.0)
        assert not report.ok
        assert any(c.metric == "overall_mtbe_node_hours" and c.status == "fail"
                   for c in report.checks)
