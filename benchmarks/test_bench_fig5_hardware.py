"""Figure 5: intra-GPU hardware error propagation."""

import pytest

from repro.core.propagation import PropagationAnalyzer
from repro.core.report import figure5_result
from repro.faults.xid import Xid


@pytest.fixture(scope="module")
def propagation(bench_study):
    return bench_study.propagation()


@pytest.fixture(scope="module")
def graph(propagation):
    return propagation.analyze()


def test_bench_propagation_analysis(benchmark, bench_study, report_sink):
    errors = bench_study.error_statistics().errors

    def analyze():
        return PropagationAnalyzer(errors).analyze()

    graph = benchmark.pedantic(analyze, rounds=3, iterations=1)
    assert graph.source_counts
    report_sink.append(figure5_result(PropagationAnalyzer(errors)).render_text())


def test_gsp_overwhelmingly_self_or_fatal(propagation):
    paths = propagation.hardware_paths()
    assert paths["p_gsp_self_or_terminal"] == pytest.approx(0.99, abs=0.02)


def test_gsp_spills_into_pmu_rarely(graph):
    p = graph.probability(Xid.GSP, Xid.PMU_SPI)
    assert 0.0 < p < 0.04  # paper: 0.01 (21 of 2,136 cases)


def test_gsp_errors_appear_in_isolation(graph):
    # Paper: 99% of GSP errors had no preceding error.
    assert graph.isolation_probability(Xid.GSP) > 0.97


def test_pmu_to_mmu_is_dominant_path(graph):
    assert graph.probability(Xid.PMU_SPI, Xid.MMU) == pytest.approx(0.82, abs=0.12)
    assert graph.probability(Xid.PMU_SPI, Xid.PMU_SPI) == pytest.approx(0.18, abs=0.12)


def test_pmu_to_mmu_propagation_is_fast(graph):
    # Close time proximity suggests causality (paper Section 4.4).
    delay = graph.mean_delay(Xid.PMU_SPI, Xid.MMU)
    assert 0.0 < delay < 10.0


def test_fallen_off_bus_terminal(graph):
    assert graph.terminal_probability(Xid.FALLEN_OFF_BUS) > 0.9


def test_mmu_rarely_propagates_further(graph):
    # MMU is the sink of Figure 5's paths, not a source.
    outgoing = sum(p for _, p, _ in graph.successors(Xid.MMU))
    assert outgoing < 0.35
