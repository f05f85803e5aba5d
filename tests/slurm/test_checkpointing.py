"""Checkpoint/restart cost model."""

import math

import pytest

from repro.slurm.checkpointing import (
    CheckpointConfig,
    expected_overhead,
    optimal_interval,
)


class TestAnalytics:
    def test_young_interval(self):
        config = CheckpointConfig(checkpoint_cost_hours=0.1, mtbf_hours=67.0)
        assert optimal_interval(config) == pytest.approx(math.sqrt(2 * 0.1 * 67))

    def test_overhead_minimized_near_optimum(self):
        config = CheckpointConfig()
        tau = optimal_interval(config)
        at_opt = expected_overhead(config, tau)
        assert at_opt < expected_overhead(config, tau / 4)
        assert at_opt < expected_overhead(config, tau * 4)

    def test_forty_percent_regime_exists(self):
        # The paper's "up to 40%" overhead: aggressive checkpointing under
        # a short MTBF.
        config = CheckpointConfig(
            checkpoint_cost_hours=0.5, restore_cost_hours=1.0, mtbf_hours=6.0
        )
        assert 0.35 < expected_overhead(config, optimal_interval(config)) < 0.8

    def test_overhead_modest_at_measured_mtbf(self):
        # At Delta's 67h MTBF the optimal overhead is a few percent, far from
        # the 40% worst case the paper cites for aggressive settings.
        config = CheckpointConfig(mtbf_hours=67.0)
        assert expected_overhead(config, optimal_interval(config)) < 0.10

    def test_degenerate_interval_clamped_to_mtbf(self):
        # Checkpoint cost at/above the MTBF: sqrt(2CM) > M is outside the
        # first-order expansion's validity; the interval clamps to the mean
        # failure gap instead of recommending "checkpoint less often than
        # you fail".
        config = CheckpointConfig(checkpoint_cost_hours=3.0, mtbf_hours=2.0)
        assert math.sqrt(2 * 3.0 * 2.0) > 2.0  # unclamped would exceed MTBF
        assert optimal_interval(config) == pytest.approx(2.0)

    def test_clamp_boundary_is_half_mtbf_cost(self):
        # C = M/2 is the crossover: sqrt(2 * M/2 * M) == M exactly.
        config = CheckpointConfig(checkpoint_cost_hours=5.0, mtbf_hours=10.0)
        assert optimal_interval(config) == pytest.approx(10.0)
        below = CheckpointConfig(checkpoint_cost_hours=4.9, mtbf_hours=10.0)
        assert optimal_interval(below) < 10.0

    def test_validation(self):
        with pytest.raises(ValueError):
            CheckpointConfig(mtbf_hours=0.0)
        with pytest.raises(ValueError):
            expected_overhead(CheckpointConfig(), 0.0)
