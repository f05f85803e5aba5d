"""Figure 7: the DBE recovery tree (row remapping + containment).

Rare-event statistics: at sub-full scale the branch probabilities carry wide
confidence intervals, so this bench pools a dedicated larger injection for
the memory codes rather than relying on the shared dataset's handful of
DBEs.
"""

import pytest

from repro.cluster import build_delta_cluster
from repro.core.parsing import parse_syslog
from repro.core.coalesce import coalesce_errors
from repro.core.propagation import PropagationAnalyzer
from repro.core.report import figure7_result
from repro.faults import AMPERE_CALIBRATION, FaultInjector, InjectorConfig
from repro.faults.xid import Xid
from repro.syslog import render_trace


@pytest.fixture(scope="module")
def memory_propagation():
    """A 4x-paper-scale memory-chain injection for tight branch statistics."""
    cluster = build_delta_cluster()
    injector = FaultInjector(AMPERE_CALIBRATION, InjectorConfig(scale=4.0, seed=13))
    trace = injector.generate(cluster)
    memory = trace.events_of(Xid.DBE, Xid.RRE, Xid.RRF, Xid.CONTAINED, Xid.UNCONTAINED)
    # Keep only the low-volume recovery codes; drop offender-burst noise.
    keep = [e for e in memory if e.xid is not Xid.UNCONTAINED or e.chain_pos > 0]
    errors = coalesce_errors(parse_syslog(render_trace(keep, seed=13)))
    return PropagationAnalyzer(errors)


def test_bench_memory_paths(benchmark, memory_propagation, report_sink):
    paths = benchmark(memory_propagation.memory_recovery_paths)
    assert paths
    report_sink.append(figure7_result(memory_propagation).render_text())


def test_dbe_remap_success_rate(memory_propagation):
    paths = memory_propagation.memory_recovery_paths()
    assert paths["p_dbe_to_rre"] == pytest.approx(0.50, abs=0.08)


def test_rrf_containment_split(memory_propagation):
    paths = memory_propagation.memory_recovery_paths()
    assert paths["p_rrf_to_contained"] == pytest.approx(0.43, abs=0.12)
    assert paths["p_rrf_to_uncontained"] == pytest.approx(0.11, abs=0.08)


def test_dbe_alleviation_near_70_percent(memory_propagation):
    paths = memory_propagation.memory_recovery_paths()
    assert paths["dbe_alleviated"] == pytest.approx(0.706, abs=0.08)


def test_recovery_chains_are_fast(memory_propagation):
    graph = memory_propagation.analyze()
    assert graph.mean_delay(Xid.DBE, Xid.RRE) < 10.0


def test_uncontained_errors_standalone_in_shared_dataset(bench_study):
    # Figure 7's right side: uncontained errors lack succeeding errors.
    graph = bench_study.propagation().analyze()
    assert graph.probability(Xid.UNCONTAINED, Xid.UNCONTAINED) < 0.1
    assert graph.terminal_probability(Xid.UNCONTAINED) > 0.85


def test_offender_share_of_uncontained(bench_study):
    stats = bench_study.error_statistics()
    # One GPU contributed 99% of uncontained errors (Section 4.4.3).
    assert stats.offender_share(int(Xid.UNCONTAINED), k=1) > 0.95
