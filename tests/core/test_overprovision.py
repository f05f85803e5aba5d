"""Section 5.4 overprovisioning emulation."""

import heapq
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.overprovision import (
    BASE_AVAILABILITY,
    OverprovisionConfig,
    OverprovisionSimulator,
    TrialResult,
    required_overprovision_analytic,
)
from repro.util.rng import spawn_rng


def _reference_trial(config, spares, trial):
    """The event-by-event loop ``run_trial`` computes in batch.

    Scalar draws, a heap of repair completions, and the blocking order
    statistic taken by sorting the heap at every blocked arrival.
    """
    rng = spawn_rng(config.seed, "overprovision", str(trial), str(spares))
    horizon = config.duration_days * 24.0
    rate = config.effective_failure_rate_per_hour
    hold_mean = config.hold_mean_hours
    recovery_hours = config.recovery_minutes / 60.0

    t = 0.0
    down = []  # heap of repair-completion times
    blocked_time = 0.0
    blocked_until = 0.0
    stall_time = 0.0
    peak_down = 0
    n_failures = 0
    while True:
        step = rng.exponential(1.0 / rate) if rate > 0 else horizon
        t_next = t + step
        if t_next >= horizon:
            break
        while down and down[0] <= t_next:
            heapq.heappop(down)
        t = t_next
        n_failures += 1
        heapq.heappush(down, t + rng.exponential(hold_mean))
        n_down = len(down)
        peak_down = max(peak_down, n_down)
        stall_time += recovery_hours
        if n_down > spares:
            deficit_until = min(sorted(down)[n_down - spares - 1], horizon)
            start = max(t, blocked_until)
            if deficit_until > start:
                blocked_time += deficit_until - start
                blocked_until = deficit_until
    return TrialResult(
        blocked_fraction=min(1.0, blocked_time / horizon),
        stall_fraction=min(1.0, stall_time / horizon),
        peak_down=peak_down,
        n_failures=n_failures,
    )


class TestConfig:
    def test_effective_rate_at_base_availability(self):
        config = OverprovisionConfig()
        # 800 nodes x 1%/h = 8 failures/hour.
        assert config.effective_failure_rate_per_hour == pytest.approx(8.0)

    def test_better_availability_cuts_rate(self):
        base = OverprovisionConfig()
        improved = OverprovisionConfig(availability=0.9987)
        assert improved.effective_failure_rate_per_hour < (
            base.effective_failure_rate_per_hour * 0.4
        )

    def test_hold_mean_grows_with_recovery(self):
        fast = OverprovisionConfig(recovery_minutes=5.0)
        slow = OverprovisionConfig(recovery_minutes=40.0)
        assert slow.hold_mean_hours > fast.hold_mean_hours * 3

    def test_validation(self):
        with pytest.raises(ValueError):
            OverprovisionConfig(n_nodes=0)
        with pytest.raises(ValueError):
            OverprovisionConfig(failure_prob_per_hour=2.0)
        with pytest.raises(ValueError):
            OverprovisionConfig(n_trials=0)
        with pytest.raises(ValueError):
            OverprovisionConfig(availability=0.0)


class TestAnalytic:
    def test_paper_anchor_40min_is_20_percent(self):
        fraction = required_overprovision_analytic(OverprovisionConfig())
        assert fraction == pytest.approx(0.20, abs=0.025)

    def test_paper_anchor_5min_is_5_percent(self):
        fraction = required_overprovision_analytic(
            OverprovisionConfig(recovery_minutes=5.0)
        )
        assert fraction == pytest.approx(0.05, abs=0.015)

    def test_availability_projection_reduces_overprovision(self):
        base = required_overprovision_analytic(OverprovisionConfig())
        improved = required_overprovision_analytic(
            OverprovisionConfig(availability=0.9987)
        )
        # Paper Section 5.5: ~4x reduction.
        assert base / improved > 2.5

    def test_zero_rate_zero_spares(self):
        config = OverprovisionConfig(availability=1.0 - 1e-12)
        assert required_overprovision_analytic(config) == pytest.approx(0.0, abs=1e-6)


class TestSimulation:
    def test_trial_counts_failures(self):
        simulator = OverprovisionSimulator(OverprovisionConfig(n_trials=1))
        result = simulator.run_trial(spares=100)
        # ~8 failures/hour over 720 hours.
        assert result.n_failures == pytest.approx(5_760, rel=0.1)
        assert result.peak_down > 0

    def test_more_spares_less_blocking(self):
        simulator = OverprovisionSimulator(OverprovisionConfig(n_trials=2))
        assert simulator.blocked_fraction(10) > simulator.blocked_fraction(200)

    def test_simulated_requirement_matches_analytic(self):
        config = OverprovisionConfig(n_trials=3, seed=5)
        simulated = OverprovisionSimulator(config).required_overprovision()
        analytic = required_overprovision_analytic(config)
        assert simulated == pytest.approx(analytic, rel=0.25)

    def test_trial_records_stalls(self):
        result = OverprovisionSimulator(OverprovisionConfig(n_trials=1)).run_trial(400)
        assert 0.0 < result.stall_fraction <= 1.0

    def test_sweep_monotone_in_recovery_time(self):
        simulator = OverprovisionSimulator(OverprovisionConfig(n_trials=2))
        results = simulator.sweep(recovery_minutes=(5.0, 40.0))
        assert results[(40.0, BASE_AVAILABILITY)] > results[(5.0, BASE_AVAILABILITY)]

    def test_deterministic_per_seed(self):
        config = OverprovisionConfig(n_trials=1, seed=9)
        a = OverprovisionSimulator(config).run_trial(100)
        b = OverprovisionSimulator(config).run_trial(100)
        assert a == b


class TestPaperSweep:
    """The Section 5.4 grid: four recovery times at 99.5% and 99.87%."""

    @pytest.fixture(scope="class")
    def sweep(self):
        simulator = OverprovisionSimulator(OverprovisionConfig(n_trials=3))
        return simulator.sweep(
            recovery_minutes=(5.0, 10.0, 20.0, 40.0),
            availabilities=(0.995, 0.9987),
        )

    def test_monotone_in_recovery(self, sweep):
        values = [sweep[(r, 0.995)] for r in (5.0, 10.0, 20.0, 40.0)]
        assert values == sorted(values)

    def test_availability_improvement_cuts_overprovision(self, sweep):
        # Section 5.5: 99.5% -> 99.9% availability shrinks the spare pool
        # by roughly 4x (20% -> 5%).
        assert sweep[(40.0, 0.995)] / sweep[(40.0, 0.9987)] > 2.2

    def test_simulation_validates_analytic_model(self, sweep):
        for (recovery, availability), simulated in sweep.items():
            analytic = required_overprovision_analytic(
                OverprovisionConfig(recovery_minutes=recovery, availability=availability)
            )
            assert simulated == pytest.approx(analytic, rel=0.3), (recovery, availability)


class TestBatchedTrial:
    """``run_trial`` returns the reference loop's result bit for bit."""

    @pytest.mark.parametrize("seed", [5, 7])
    @pytest.mark.parametrize("recovery", [5.0, 40.0])
    # 1.0 is a zero failure rate.
    @pytest.mark.parametrize("availability", [0.995, 0.9987, 1.0])
    # A 1-hour job sees few or no failures.
    @pytest.mark.parametrize("duration_days", [30.0, 1.0 / 24.0])
    def test_matches_reference_loop(self, seed, recovery, availability, duration_days):
        config = OverprovisionConfig(
            recovery_minutes=recovery,
            availability=availability,
            duration_days=duration_days,
            seed=seed,
        )
        simulator = OverprovisionSimulator(config)
        guess = math.ceil(required_overprovision_analytic(config) * config.n_nodes)
        for spares in sorted({0, 1, guess, 2 * guess, config.n_nodes}):
            for trial in range(3):
                assert simulator.run_trial(spares, trial) == _reference_trial(
                    config, spares, trial
                ), (spares, trial)

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        spares=st.integers(min_value=0, max_value=60),
        recovery=st.floats(min_value=1.0, max_value=120.0),
        n_nodes=st.integers(min_value=20, max_value=200),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_reference_loop_property(self, seed, spares, recovery, n_nodes):
        config = OverprovisionConfig(
            n_nodes=n_nodes, recovery_minutes=recovery, seed=seed
        )
        assert OverprovisionSimulator(config).run_trial(spares) == _reference_trial(
            config, spares, 0
        )

    def test_usage_example_spare_count(self):
        # The 4096-GPU, 10-minute planner row of docs/usage.md, at five
        # times the failure rate of the verify sweep.
        config = OverprovisionConfig(n_nodes=4096, recovery_minutes=10.0)
        simulator = OverprovisionSimulator(config)
        assert round(simulator.required_overprovision() * config.n_nodes) == 238
