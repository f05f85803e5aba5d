"""Chain walking: branching statistics must match the kernel."""

import numpy as np
import pytest

from repro.faults.calibration import (
    AMPERE_KERNEL,
    DelayModel,
    KernelRow,
    Transition,
)
from repro.faults.chains import MAX_CHAIN_LENGTH, walk_chain
from repro.faults.xid import Xid


class TestWalkChain:
    def test_terminal_code_yields_single_step(self):
        rng = np.random.default_rng(0)
        steps = walk_chain(Xid.FALLEN_OFF_BUS, AMPERE_KERNEL, rng)
        assert len(steps) == 1
        assert steps[0].xid is Xid.FALLEN_OFF_BUS
        assert steps[0].inoperable  # FOB row: inoperable_prob 1.0

    def test_unknown_code_is_terminal(self):
        rng = np.random.default_rng(0)
        steps = walk_chain(Xid.XID_136, {}, rng)
        assert len(steps) == 1 and not steps[0].inoperable

    def test_root_has_zero_delay(self):
        rng = np.random.default_rng(0)
        steps = walk_chain(Xid.GSP, AMPERE_KERNEL, rng)
        assert steps[0].delay_after_prev == 0.0
        assert not steps[0].on_peer

    def test_pmu_branching_statistics(self):
        rng = np.random.default_rng(42)
        mmu_follow = 0
        pmu_follow = 0
        n = 20_000
        for _ in range(n):
            steps = walk_chain(Xid.PMU_SPI, AMPERE_KERNEL, rng)
            if len(steps) > 1:
                if steps[1].xid is Xid.MMU:
                    mmu_follow += 1
                elif steps[1].xid is Xid.PMU_SPI:
                    pmu_follow += 1
        assert mmu_follow / n == pytest.approx(0.82, abs=0.01)
        assert pmu_follow / n == pytest.approx(0.18, abs=0.01)

    def test_dbe_tree_statistics(self):
        rng = np.random.default_rng(43)
        outcomes = {"rre": 0, "rrf_contained": 0, "rrf_uncontained": 0,
                    "rrf_inoperable": 0, "none": 0}
        n = 30_000
        for _ in range(n):
            steps = walk_chain(Xid.DBE, AMPERE_KERNEL, rng)
            if len(steps) == 1:
                outcomes["none"] += 1
            elif steps[1].xid is Xid.RRE:
                outcomes["rre"] += 1
            elif steps[1].xid is Xid.RRF:
                if len(steps) > 2 and steps[2].xid is Xid.CONTAINED:
                    outcomes["rrf_contained"] += 1
                elif len(steps) > 2 and steps[2].xid is Xid.UNCONTAINED:
                    outcomes["rrf_uncontained"] += 1
                else:
                    outcomes["rrf_inoperable"] += 1
        assert outcomes["rre"] / n == pytest.approx(0.50, abs=0.01)
        # Overall alleviation: RRE success + containment after RRF ~ 70.6%.
        alleviated = (outcomes["rre"] + outcomes["rrf_contained"]) / n
        assert alleviated == pytest.approx(0.706, abs=0.015)

    def test_gsp_inoperable_rate(self):
        rng = np.random.default_rng(44)
        inoperable = 0
        n = 20_000
        for _ in range(n):
            steps = walk_chain(Xid.GSP, AMPERE_KERNEL, rng)
            if steps[-1].inoperable:
                inoperable += 1
        # Per chain: recurrences re-draw the terminal fate, so nearly every
        # GSP chain ends inoperable (only PMU-spill chains escape).
        assert inoperable / n == pytest.approx(0.99, abs=0.01)

    def test_runaway_kernel_raises(self):
        kernel = {
            Xid.MMU: KernelRow(
                Xid.MMU,
                transitions=(Transition(Xid.MMU, 1.0, DelayModel(7, 8)),),
            )
        }
        rng = np.random.default_rng(0)
        with pytest.raises(RuntimeError):
            walk_chain(Xid.MMU, kernel, rng)

    def test_chain_never_exceeds_cap(self):
        rng = np.random.default_rng(45)
        for _ in range(2_000):
            assert len(walk_chain(Xid.NVLINK, AMPERE_KERNEL, rng)) <= MAX_CHAIN_LENGTH


def _mean_chain_length(root_xid, samples, rng):
    return sum(len(walk_chain(root_xid, AMPERE_KERNEL, rng)) for _ in range(samples)) / samples


class TestExpectedChainLength:
    def test_nvlink_geometric_length(self):
        # Self-continuation 0.66 => expected length 1/(1-0.66) ~ 2.94.
        rng = np.random.default_rng(46)
        length = _mean_chain_length(Xid.NVLINK, 20_000, rng)
        assert length == pytest.approx(1.0 / 0.34, rel=0.03)

    def test_terminal_code_length_one(self):
        rng = np.random.default_rng(47)
        assert _mean_chain_length(Xid.CONTAINED, 100, rng) == 1.0
