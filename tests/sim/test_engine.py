"""The what-if engine: placement, progress accounting, policy behaviour."""

import numpy as np
import pytest

from repro.faults.calibration import AMPERE_CALIBRATION
from repro.faults.variants import profile_variant
from repro.sim import engine
from repro.sim.engine import (
    SimulationConfig,
    TrainingJobConfig,
    WhatIfEngine,
    allocate_job,
    simulate_training_run,
)
from repro.sim.failures import FailureModel
from repro.sim.policies import CheckpointRestart, NoCheckpoint
from repro.sim.scenarios import build_scenario


@pytest.fixture(scope="module")
def quiet_profile():
    """An Ampere fleet where nothing ever breaks."""
    return profile_variant(
        AMPERE_CALIBRATION,
        name_suffix="quiet",
        drop_xids={xid: True for xid in AMPERE_CALIBRATION.xids},
    )


class TestPlacement:
    def test_allocation_covers_request_exactly(self):
        counts = allocate_job(64, "a100")
        assert sum(counts) == 64
        assert all(1 <= c <= 8 for c in counts)

    def test_oversized_job_grows_the_inventory(self):
        # The stock Hopper partition has 320 GPUs; a 512-GPU what-if must
        # still place (on a grown fleet), not silently shrink.
        counts = allocate_job(512, "h100")
        assert sum(counts) == 512

    def test_unknown_partition_rejected(self):
        with pytest.raises(ValueError):
            TrainingJobConfig(partition="tpu")

    def test_job_validation(self):
        with pytest.raises(ValueError):
            TrainingJobConfig(n_gpus=0)
        with pytest.raises(ValueError):
            TrainingJobConfig(useful_hours=0.0)


class TestQuietWorld:
    def test_no_failures_no_overhead(self, quiet_profile):
        # Young's interval is infinite when nothing fails, so the run is
        # exactly the useful work: goodput 1.0, no checkpoints, no events.
        config = SimulationConfig(
            profile=quiet_profile,
            job=TrainingJobConfig(n_gpus=32, useful_hours=10.0),
            policy=CheckpointRestart(),
        )
        metrics = simulate_training_run(config, FailureModel(quiet_profile), seed=1)
        assert metrics.completed
        assert metrics.wall_hours == pytest.approx(10.0)
        assert metrics.goodput == pytest.approx(1.0)
        assert metrics.n_checkpoints == 0
        assert metrics.n_root_events == 0

    def test_fixed_interval_costs_only_the_writes(self, quiet_profile):
        config = SimulationConfig(
            profile=quiet_profile,
            job=TrainingJobConfig(n_gpus=32, useful_hours=10.0),
            policy=CheckpointRestart(interval_hours=2.0),
        )
        metrics = simulate_training_run(config, FailureModel(quiet_profile), seed=1)
        assert metrics.completed
        # Checkpoints at 2/4/6/8 h, none at the end.
        assert metrics.n_checkpoints == 4
        assert metrics.wall_hours == pytest.approx(10.0 + 4 * 0.1)
        assert metrics.checkpoint_write_hours == pytest.approx(0.4)


class TestMeasuredWorld:
    def test_deterministic_per_seed_and_replica(self):
        config = build_scenario("a100-256", "ckpt", n_gpus=64, useful_hours=24.0)
        model = FailureModel(config.profile)
        a = simulate_training_run(config, model, seed=7, replica=3)
        b = simulate_training_run(config, model, seed=7, replica=3)
        c = simulate_training_run(config, model, seed=7, replica=4)
        assert a == b
        assert a != c

    @pytest.mark.parametrize("policy", ["ckpt", "spare:2", "elastic"])
    def test_recovered_job_completes(self, policy):
        config = build_scenario("a100-256", policy, n_gpus=64, useful_hours=24.0)
        metrics = simulate_training_run(
            config, FailureModel(config.profile), seed=7, replica=1
        )
        assert metrics.completed
        assert metrics.useful_hours == pytest.approx(24.0)
        assert metrics.wall_hours >= 24.0
        assert 0.0 < metrics.goodput <= 1.0 + 1e-9

    def test_wall_time_accounting_closes(self):
        # Non-elastic runs partition wall time exactly: useful work, rework,
        # committed checkpoint writes, and recovery downtime — plus at most
        # one aborted write per interruption.
        config = build_scenario("a100-256", "ckpt", n_gpus=128, useful_hours=48.0)
        model = FailureModel(config.profile)
        for replica in range(4):
            m = simulate_training_run(config, model, seed=11, replica=replica)
            assert m.completed
            accounted = (
                m.useful_hours
                + m.rework_hours
                + m.checkpoint_write_hours
                + m.downtime_hours
            )
            slack = m.n_interruptions * engine.CHECKPOINT_COST_HOURS
            assert accounted - 1e-6 <= m.wall_hours <= accounted + slack + 1e-6

    def test_downtime_implies_interruptions(self):
        config = build_scenario("a100-512", "ckpt", useful_hours=48.0)
        m = simulate_training_run(config, FailureModel(config.profile), seed=3, replica=0)
        if m.n_interruptions:
            assert m.downtime_hours > 0
            assert m.ettr_hours == pytest.approx(
                m.downtime_hours / m.n_interruptions
            )

    def test_no_checkpoint_long_job_hits_the_wall(self, monkeypatch):
        # Restart-from-zero on a 512-GPU 50-hour job against the measured
        # process: the run burns its wall-clock cap instead of finishing.
        monkeypatch.setattr(engine, "MAX_WALL_FACTOR", 2.0)
        config = SimulationConfig(
            profile=AMPERE_CALIBRATION,
            job=TrainingJobConfig(n_gpus=512, useful_hours=50.0),
            policy=NoCheckpoint(),
        )
        metrics = simulate_training_run(config, FailureModel(AMPERE_CALIBRATION), seed=5)
        assert not metrics.completed
        assert metrics.wall_hours == pytest.approx(50.0 * 2.0 + 100.0)
        assert metrics.goodput < 1.0

    def test_hot_spare_swaps_and_evictions_bounded(self):
        config = build_scenario("a100-512", "spare:4", useful_hours=72.0)
        m = simulate_training_run(config, FailureModel(config.profile), seed=2, replica=0)
        assert m.n_spare_swaps <= m.n_inoperable
        assert m.offenders_evicted <= min(m.offenders_drawn, m.n_spare_swaps)

    def test_spare_policy_beats_plain_checkpointing_on_average(self):
        # The drain-and-replace lever: evicting defective parts must help
        # on a fleet whose failure mass is offender-concentrated.
        plain = build_scenario("a100-256", "ckpt", useful_hours=72.0)
        spare = build_scenario("a100-256", "spare:4", useful_hours=72.0)
        model = FailureModel(plain.profile)
        n = 6
        plain_goodput = sum(
            simulate_training_run(plain, model, seed=7, replica=i).goodput
            for i in range(n)
        )
        spare_goodput = sum(
            simulate_training_run(spare, model, seed=7, replica=i).goodput
            for i in range(n)
        )
        assert spare_goodput > plain_goodput

    def test_a_model_for_another_profile_is_refused(self, quiet_profile):
        config = build_scenario("h100-256", "ckpt", n_gpus=32, useful_hours=12.0)
        with pytest.raises(ValueError, match="delta-h100"):
            WhatIfEngine(config, FailureModel(quiet_profile), np.random.default_rng(0))
