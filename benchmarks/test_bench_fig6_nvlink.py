"""Figure 6: NVLink intra/inter-GPU propagation and involvement."""

import pytest

from repro.core.report import figure6_result
from repro.faults.xid import Xid


@pytest.fixture(scope="module")
def propagation(bench_study):
    return bench_study.propagation()


@pytest.fixture(scope="module")
def graph(propagation):
    return propagation.analyze()


def test_bench_nvlink_involvement(benchmark, propagation, report_sink):
    involvement = benchmark(propagation.nvlink_involvement)
    assert involvement.total_errors > 0
    report_sink.append(figure6_result(propagation).render_text())


def test_nvlink_self_recurrence(graph):
    assert graph.probability(Xid.NVLINK, Xid.NVLINK) == pytest.approx(0.66, abs=0.08)


def test_nvlink_inter_gpu_spread(graph):
    inter = graph.probability(Xid.NVLINK, Xid.NVLINK, inter=True)
    assert inter == pytest.approx(0.14, abs=0.07)


def test_nvlink_error_state_fraction(graph):
    error_state = graph.terminal_probability(Xid.NVLINK) - graph.probability(
        Xid.NVLINK, Xid.NVLINK, inter=True
    )
    assert error_state == pytest.approx(0.20, abs=0.12)


def test_most_errors_stay_on_one_gpu(propagation):
    involvement = propagation.nvlink_involvement()
    # Paper: 84-86% single-GPU; the calibration trades a few points of this
    # statistic for hitting the Figure-6 inter-GPU edge probability (see
    # DESIGN.md), so the accepted band is 72-92%.
    assert involvement.single_gpu_fraction == pytest.approx(0.82, abs=0.10)


def test_four_plus_gpu_incidents_exist(propagation):
    involvement = propagation.nvlink_involvement()
    share = (
        involvement.errors_in_4plus_gpu_incidents / involvement.total_errors
        if involvement.total_errors
        else 0.0
    )
    assert share == pytest.approx(0.05, abs=0.045)


def test_nvlink_errors_unpredictable(graph):
    # Paper Section 4.4.2: "we found no preceding hardware errors before
    # NVLink errors" — i.e. nothing *else* flows into NVLink; recurrences of
    # the code itself are the only intra-GPU predecessors.
    inflow = sum(
        stats.count
        for (src, dst), stats in graph.intra_edges.items()
        if dst == int(Xid.NVLINK) and src != int(Xid.NVLINK)
    )
    assert inflow <= graph.source_counts.get(int(Xid.NVLINK), 0) * 0.02


def test_nvlink_mtbe_per_node(bench_study):
    stats = bench_study.error_statistics()
    assert stats.mtbe_per_node_hours(int(Xid.NVLINK)) == pytest.approx(1_415, rel=0.15)
