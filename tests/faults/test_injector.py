"""Fault injector: count calibration, placement, separation guarantees."""

from collections import Counter

import numpy as np
import pytest

from repro.faults.calibration import AMPERE_CALIBRATION, H100_CALIBRATION
from repro.faults.injector import (
    COALESCE_GUARD_SECONDS,
    FaultInjector,
    InjectorConfig,
)
from repro.faults.xid import Xid


def _of(trace, xid):
    return [e for e in trace if e.xid is xid]


def _chains(trace):
    """Events grouped by chain id, each chain in chain-position order."""
    grouped = {}
    for event in trace:
        grouped.setdefault(event.chain_id, []).append(event)
    for chain in grouped.values():
        chain.sort(key=lambda e: e.chain_pos)
    return grouped


@pytest.fixture(scope="module")
def ampere_trace(delta_cluster):
    injector = FaultInjector(AMPERE_CALIBRATION, InjectorConfig(scale=0.05, seed=11))
    return injector.generate(delta_cluster)


class TestCounts:
    def test_totals_match_scaled_calibration(self, ampere_trace):
        counts = Counter(int(e.xid) for e in ampere_trace)
        targets = AMPERE_CALIBRATION.scaled_counts(0.05)
        for xid, target in targets.items():
            if target < 20:
                continue  # tiny rows are dominated by chain stochasticity
            assert counts[int(xid)] == pytest.approx(target, rel=0.15), xid

    def test_uncontained_count_within_five_percent(self, ampere_trace):
        realized = len(_of(ampere_trace, Xid.UNCONTAINED))
        target = AMPERE_CALIBRATION.scaled_counts(0.05)[Xid.UNCONTAINED]
        assert realized == pytest.approx(target, rel=0.05)

    def test_deterministic_given_seed(self, delta_cluster):
        config = InjectorConfig(scale=0.01, seed=5)
        t1 = FaultInjector(AMPERE_CALIBRATION, config).generate(delta_cluster)
        t2 = FaultInjector(AMPERE_CALIBRATION, config).generate(delta_cluster)
        assert len(t1) == len(t2)
        assert all(
            a.time == b.time and a.gpu_key == b.gpu_key and a.xid == b.xid
            for a, b in zip(t1.events, t2.events)
        )

    def test_different_seed_differs(self, delta_cluster):
        t1 = FaultInjector(AMPERE_CALIBRATION, InjectorConfig(scale=0.01, seed=5)).generate(delta_cluster)
        t2 = FaultInjector(AMPERE_CALIBRATION, InjectorConfig(scale=0.01, seed=6)).generate(delta_cluster)
        times1 = [e.time for e in t1.events[:50]]
        times2 = [e.time for e in t2.events[:50]]
        assert times1 != times2

    def test_workload_mmu_exclusion_reduces_mmu(self, delta_cluster):
        base = FaultInjector(AMPERE_CALIBRATION, InjectorConfig(scale=0.02, seed=5))
        reduced = FaultInjector(
            AMPERE_CALIBRATION,
            InjectorConfig(scale=0.02, seed=5, workload_mmu_external=True),
        )
        budget = reduced.workload_mmu_budget()
        assert budget > 0
        assert reduced.root_counts()[Xid.MMU] + budget == pytest.approx(
            base.root_counts()[Xid.MMU], rel=0.001
        )


class TestPlacement:
    def test_events_confined_to_ampere_nodes(self, ampere_trace, delta_cluster):
        ampere_ids = {n.node_id for n in delta_cluster.ampere_nodes}
        assert all(e.node_id in ampere_ids for e in ampere_trace)

    def test_events_within_window(self, ampere_trace):
        assert all(0 <= e.time < ampere_trace.window_seconds for e in ampere_trace)
        assert all(e.end_time <= ampere_trace.window_seconds for e in ampere_trace)

    def test_uncontained_offender_concentration(self, ampere_trace):
        events = _of(ampere_trace, Xid.UNCONTAINED)
        per_gpu = Counter(e.gpu_key for e in events)
        top_share = per_gpu.most_common(1)[0][1] / len(events)
        # Section 4.4.3: one GPU contributed 99% of uncontained errors.
        assert top_share > 0.95

    def test_uncontained_limited_to_few_gpus(self, ampere_trace):
        # 4 offender GPUs plus the rare RRF containment-failure chain events.
        events = _of(ampere_trace, Xid.UNCONTAINED)
        spontaneous = [e for e in events if e.chain_pos == 0]
        assert len({e.gpu_key for e in spontaneous}) <= 4

    def test_gsp_spread_across_gpus(self, ampere_trace):
        events = _of(ampere_trace, Xid.GSP)
        per_gpu = Counter(e.gpu_key for e in events)
        assert per_gpu.most_common(1)[0][1] < len(events) * 0.1

    def test_uncontained_arrivals_bursty_gsp_memoryless(self, ampere_trace):
        # Section 4.4: the offender's errors come in bursts; GSP errors
        # arrive like a Poisson process (coefficient of variation near 1).
        def variation(xid):
            gaps = np.diff([e.time for e in _of(ampere_trace, xid)])
            return gaps.std() / gaps.mean()

        assert variation(Xid.UNCONTAINED) > 2.0
        assert variation(Xid.GSP) == pytest.approx(1.0, abs=0.25)


class TestSeparation:
    def test_same_gpu_same_xid_events_never_overlap(self, ampere_trace):
        by_group = {}
        for event in ampere_trace:
            by_group.setdefault((event.gpu_key, event.xid), []).append(event)
        for group in by_group.values():
            group.sort(key=lambda e: e.time)
            for previous, current in zip(group, group[1:]):
                gap = current.time - previous.end_time
                assert gap >= COALESCE_GUARD_SECONDS - 1e-6

    def test_chain_events_ordered_in_time(self, ampere_trace):
        # Within one chain, each GPU's sub-sequence advances in time (fanout
        # incidents interleave several per-GPU sub-chains).
        for chain in _chains(ampere_trace).values():
            per_gpu = {}
            for event in chain:
                per_gpu.setdefault(event.gpu_key, []).append(event.time)
            for times in per_gpu.values():
                assert times == sorted(times)


class TestChainsInTrace:
    def test_pmu_chains_produce_mmu_followups(self, delta_cluster):
        injector = FaultInjector(AMPERE_CALIBRATION, InjectorConfig(scale=0.5, seed=9))
        trace = injector.generate(delta_cluster)
        chains = _chains(trace)
        pmu_roots = [
            chain for chain in chains.values() if chain[0].xid is Xid.PMU_SPI
        ]
        assert pmu_roots, "expected PMU SPI chains at half scale"
        # The *first* transition out of PMU SPI is MMU with probability 0.82
        # (eventually every PMU chain reaches MMU because recurrences retry).
        first_is_mmu = [
            chain for chain in pmu_roots if len(chain) > 1 and chain[1].xid is Xid.MMU
        ]
        assert len(first_is_mmu) / len(pmu_roots) == pytest.approx(0.82, abs=0.17)

    def test_nvlink_fanout_spans_gpus_on_same_node(self, ampere_trace):
        multi = [
            chain
            for chain in _chains(ampere_trace).values()
            if chain and chain[0].xid is Xid.NVLINK
            and len({e.gpu_key for e in chain}) >= 2
        ]
        assert multi, "expected at least one multi-GPU NVLink incident"
        for chain in multi:
            nodes = {e.node_id for e in chain}
            assert len(nodes) == 1  # NVLink is intra-node only


class TestH100Injection:
    def test_h100_events_on_hopper_nodes(self, delta_cluster):
        injector = FaultInjector(H100_CALIBRATION, InjectorConfig(scale=1.0, seed=2))
        trace = injector.generate(delta_cluster)
        hopper = {n.node_id for n in delta_cluster.hopper_nodes}
        assert trace.events and all(e.node_id in hopper for e in trace)

    def test_h100_has_no_rre(self, delta_cluster):
        injector = FaultInjector(H100_CALIBRATION, InjectorConfig(scale=1.0, seed=2))
        trace = injector.generate(delta_cluster)
        assert not _of(trace, Xid.RRE)

    def test_h100_xid136_count_realizes(self, delta_cluster):
        injector = FaultInjector(H100_CALIBRATION, InjectorConfig(scale=1.0, seed=99))
        trace = injector.generate(delta_cluster)
        assert len(_of(trace, Xid.XID_136)) == pytest.approx(70, abs=3)

    def test_empty_population_rejected(self, delta_cluster):
        from repro.cluster.inventory import ClusterInventory

        cpu_only = ClusterInventory(delta_cluster.cpu_nodes)
        injector = FaultInjector(AMPERE_CALIBRATION, InjectorConfig(scale=0.01))
        with pytest.raises(ValueError):
            injector.generate(cpu_only)
