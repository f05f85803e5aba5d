"""Calibrated failure process: rates, the offender lottery, chain draws."""

import math

import numpy as np
import pytest

from repro.faults.calibration import AMPERE_CALIBRATION, H100_CALIBRATION, solve_root_counts
from repro.faults.xid import Xid
from repro.sim.failures import FailureModel


@pytest.fixture(scope="module")
def model():
    return FailureModel(AMPERE_CALIBRATION)


@pytest.fixture(scope="module")
def state(model):
    rng = np.random.default_rng(3)
    return model.allocation_state(
        n_nodes=64, n_gpus=256, population_gpus=848, rng=rng
    )


class TestRates:
    def test_base_rate_positive_and_plausible(self, model):
        # The fleet-average per-node MTBE is ~67 h; the background (offender
        # mass and workload MMU excluded) must be strictly rarer.
        assert model.base_rate_per_node_hour > 0
        assert 1.0 / model.base_rate_per_node_hour > 67.0

    def test_workload_mmu_excluded_by_default(self, model):
        # The job-correlated MMU share belongs to workloads, not to the
        # fleet a training job runs on.
        profile = AMPERE_CALIBRATION
        roots = solve_root_counts(profile.scaled_counts(1.0), profile.kernel)
        skew = profile.xids[Xid.MMU].offenders
        share = skew.offender_share if skew is not None else 0.0
        hardware = roots[Xid.MMU] * (1.0 - profile.mmu_from_workload_fraction)
        expected = hardware * (1.0 - share) / (
            profile.window_days * 24.0 * profile.reference_node_count
        )
        assert model.base_rates[Xid.MMU] == pytest.approx(expected, rel=1e-9)

    def test_offender_mass_is_concentrated(self, model):
        # Uncontained errors (Xid 95): one of four defective GPUs carries
        # 99 % — the lottery's whole point.
        total, weights = model.offender_rates[Xid.UNCONTAINED]
        assert total > 0
        assert max(weights) > 0.9
        assert sum(weights) == pytest.approx(1.0)

    def test_interrupt_probs_deterministic_per_profile(self, model):
        again = FailureModel(AMPERE_CALIBRATION)
        for xid in model.base_rates:
            assert model.interrupt_prob(xid) == again.interrupt_prob(xid)
        assert all(0.0 <= model.interrupt_prob(x) <= 1.0 for x in model.base_rates)


class TestLottery:
    def test_full_population_draws_every_offender(self, model):
        rng = np.random.default_rng(0)
        state = model.allocation_state(
            n_nodes=206, n_gpus=848, population_gpus=848, rng=rng
        )
        n_skewed = sum(
            skew[1].__len__() for skew in model.offender_rates.values()
        )
        assert len(state.offenders) == n_skewed

    def test_small_job_rarely_draws_offenders(self, model):
        rng = np.random.default_rng(0)
        draws = [
            len(
                model.allocation_state(
                    n_nodes=1, n_gpus=4, population_gpus=848, rng=rng
                ).offenders
            )
            for _ in range(200)
        ]
        # Inclusion probability 4/848 per offender: mostly zero.
        assert sum(1 for d in draws if d == 0) > 150

    def test_eviction_lowers_rate_permanently(self, model):
        rng = np.random.default_rng(1)
        state = model.allocation_state(
            n_nodes=206, n_gpus=848, population_gpus=848, rng=rng
        )
        before = state.total_rate()
        worst = max(
            range(len(state.offenders)),
            key=lambda i: state.offenders[i].rate_per_hour,
        )
        state.evict_offender(worst)
        assert state.total_rate() < before
        assert state.offenders_evicted == 1
        state.evict_offender(worst)  # idempotent
        assert state.offenders_evicted == 1

    def test_suspend_resume_round_trips(self, model):
        rng = np.random.default_rng(1)
        state = model.allocation_state(
            n_nodes=206, n_gpus=848, population_gpus=848, rng=rng
        )
        before = state.total_rate()
        state.suspend_offender(0)
        assert state.total_rate() < before
        state.resume_offender(0)
        assert state.total_rate() == pytest.approx(before)
        assert state.offenders_evicted == 0


class TestDraws:
    def test_gap_is_positive_and_finite(self, state):
        rng = np.random.default_rng(5)
        gaps = [state.next_gap_hours(rng) for _ in range(100)]
        assert all(g > 0 and math.isfinite(g) for g in gaps)

    def test_gap_infinite_at_zero_rate(self, model):
        rng = np.random.default_rng(5)
        empty = model.allocation_state(
            n_nodes=4, n_gpus=16, population_gpus=848, rng=rng
        )
        empty.n_active_nodes = 0
        for i in range(len(empty.offenders)):
            empty.suspend_offender(i)
        assert math.isinf(empty.next_gap_hours(rng))

    def test_draw_resolves_chain_and_repair(self, state):
        rng = np.random.default_rng(7)
        for _ in range(200):
            draw = state.draw(rng)
            assert draw.chain[0] == draw.root_xid
            if draw.inoperable:
                assert draw.repair_hours > 0
            else:
                assert draw.repair_hours == 0.0
            if draw.fatal:
                assert draw.fatal_xid in draw.chain
            assert draw.interrupts == (draw.fatal or draw.inoperable)

    def test_h100_profile_also_works(self):
        model = FailureModel(H100_CALIBRATION)
        rng = np.random.default_rng(9)
        state = model.allocation_state(
            n_nodes=32, n_gpus=128, population_gpus=320, rng=rng
        )
        assert state.total_rate() > 0
        assert state.draw(rng).root_xid in set(model.base_rates) | set(
            model.offender_rates
        )
