"""Section 5.4: overprovisioning projection for an 800-GPU month-long job."""

import pytest

from repro.core.overprovision import (
    OverprovisionConfig,
    OverprovisionSimulator,
    required_overprovision_analytic,
)
from repro.core.report import overprovision_result


@pytest.fixture(scope="module")
def sweep_results():
    simulator = OverprovisionSimulator(OverprovisionConfig(n_trials=3))
    return simulator.sweep(
        recovery_minutes=(5.0, 10.0, 20.0, 40.0),
        availabilities=(0.995, 0.9987),
    )


def test_bench_overprovision_des(benchmark):
    simulator = OverprovisionSimulator(OverprovisionConfig(n_trials=1))
    result = benchmark(lambda: simulator.run_trial(spares=160))
    assert result.n_failures > 1_000


def test_paper_anchor_40min_20_percent(sweep_results, report_sink):
    report_sink.append(overprovision_result(sweep_results).render_text())
    assert sweep_results[(40.0, 0.995)] == pytest.approx(0.20, abs=0.03)


def test_paper_anchor_5min_5_percent(sweep_results):
    assert sweep_results[(5.0, 0.995)] == pytest.approx(0.05, abs=0.02)


def test_sweep_monotone_in_recovery(sweep_results):
    values = [sweep_results[(r, 0.995)] for r in (5.0, 10.0, 20.0, 40.0)]
    assert values == sorted(values)


def test_availability_improvement_cuts_overprovision(sweep_results):
    # Paper Section 5.5: 99.5% -> 99.9% availability shrinks the spare pool
    # by roughly 4x (20% -> 5%).
    base = sweep_results[(40.0, 0.995)]
    improved = sweep_results[(40.0, 0.9987)]
    assert base / improved > 2.2


def test_simulation_validates_analytic_model(sweep_results):
    for (recovery, availability), simulated in sweep_results.items():
        analytic = required_overprovision_analytic(
            OverprovisionConfig(recovery_minutes=recovery, availability=availability)
        )
        assert simulated == pytest.approx(analytic, rel=0.3), (recovery, availability)
