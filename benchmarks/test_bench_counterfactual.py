"""Section 5.5: counterfactual resilience improvements."""

import pytest

from repro.core.report import counterfactual_result


@pytest.fixture(scope="module")
def report(bench_study):
    return bench_study.counterfactual().analyze()


def test_bench_counterfactual(benchmark, bench_study, report_sink):
    analyzer = bench_study.counterfactual()
    result = benchmark(analyzer.analyze)
    report_sink.append(counterfactual_result(result).render_text())


def test_baseline_near_67_node_hours(report):
    assert report.baseline_mtbe_node_hours == pytest.approx(67.0, rel=0.12)


def test_removing_offenders_triples_mtbe(report):
    # Paper: 67 -> 190 node-hours (~3x).
    assert report.offender_improvement == pytest.approx(3.0, abs=0.8)
    assert report.without_offenders_mtbe_node_hours == pytest.approx(190.0, rel=0.25)


def test_hardware_exclusion_adds_roughly_16_percent(report):
    assert report.hardware_additional_improvement == pytest.approx(1.16, abs=0.14)
    assert report.without_offenders_and_hw_mtbe_node_hours == pytest.approx(
        223.0, rel=0.25
    )


def test_availability_reaches_three_nines_territory(report):
    assert report.baseline_availability == pytest.approx(0.995, abs=0.003)
    assert report.improved_availability == pytest.approx(0.9987, abs=0.0012)


def test_few_gpus_removed(report):
    # The counterfactual culls a handful of defective parts, not the fleet.
    assert 1 <= len(report.removed_gpus) <= 40
