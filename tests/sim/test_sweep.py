"""Sweep runner: determinism across workers, caching, resumability."""

import json
import os

import pytest

from repro import obs
from repro.cli import main
from repro.experiments import EXPERIMENTS, ExperimentContext
from repro.obs import read_trace_dir
from repro.sim import sweep
from repro.sim.engine import simulate_training_run
from repro.sim.failures import FailureModel
from repro.sim.scenarios import SCENARIOS
from repro.sim.sweep import SweepConfig, _load_cache, run_sweep

#: Small enough to keep the suite fast, large enough to exercise the pool.
_BASE = dict(scenario="a100-256", policy="spare:2", seed=13,
             n_gpus=32, useful_hours=12.0)


class TestConfigHash:
    def test_replicas_excluded_from_hash(self):
        a = SweepConfig(replicas=4, **_BASE)
        b = SweepConfig(replicas=400, **_BASE)
        assert a.config_hash() == b.config_hash()

    @pytest.mark.parametrize(
        "change",
        [{"seed": 14}, {"policy": "ckpt"}, {"scenario": "h100-256"},
         {"n_gpus": 64}, {"useful_hours": 13.0}],
    )
    def test_semantic_fields_change_hash(self, change):
        reference = SweepConfig(replicas=4, **_BASE)
        modified = SweepConfig(replicas=4, **{**_BASE, **change})
        assert reference.config_hash() != modified.config_hash()

    def test_validation(self):
        with pytest.raises(ValueError):
            SweepConfig(replicas=0)


class TestDeterminism:
    def test_aggregates_independent_of_worker_count(self):
        # The acceptance criterion: identical aggregates for any K.
        config = SweepConfig(replicas=5, **_BASE)
        serial = run_sweep(config, workers=1)
        parallel = run_sweep(config, workers=3)
        assert serial.runs == parallel.runs
        assert json.dumps(serial.aggregate, sort_keys=True) == json.dumps(
            parallel.aggregate, sort_keys=True
        )

    def test_growing_a_sweep_preserves_early_replicas(self):
        small = run_sweep(SweepConfig(replicas=3, **_BASE), workers=1)
        large = run_sweep(SweepConfig(replicas=5, **_BASE), workers=2)
        assert large.runs[:3] == small.runs


class TestCache:
    def test_resume_reuses_cached_replicas(self, tmp_path):
        cache = str(tmp_path)
        first = run_sweep(SweepConfig(replicas=3, **_BASE), workers=1,
                          cache_dir=cache)
        assert first.n_from_cache == 0
        grown = run_sweep(SweepConfig(replicas=5, **_BASE), workers=2,
                          cache_dir=cache)
        assert grown.n_from_cache == 3
        fresh = run_sweep(SweepConfig(replicas=5, **_BASE), workers=1)
        assert grown.runs == fresh.runs

    def test_cache_isolated_by_config(self, tmp_path):
        cache = str(tmp_path)
        run_sweep(SweepConfig(replicas=2, **_BASE), workers=1, cache_dir=cache)
        other = run_sweep(
            SweepConfig(replicas=2, **{**_BASE, "seed": 99}),
            workers=1, cache_dir=cache,
        )
        assert other.n_from_cache == 0
        assert len(list(tmp_path.glob("sweep-*.jsonl"))) == 2

    def test_torn_final_line_tolerated(self, tmp_path):
        config = SweepConfig(replicas=2, **_BASE)
        cache = str(tmp_path)
        run_sweep(config, workers=1, cache_dir=cache)
        path = next(tmp_path.glob("sweep-*.jsonl"))
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"replica": 2, "metr')  # interrupted mid-write
        cached = _load_cache(str(path))
        assert set(cached) == {0, 1}
        resumed = run_sweep(SweepConfig(replicas=3, **_BASE), workers=1,
                            cache_dir=cache)
        assert resumed.n_from_cache == 2
        assert resumed.aggregate["replicas"] == 3

    def test_result_to_dict_shape(self):
        result = run_sweep(SweepConfig(replicas=2, **_BASE), workers=1)
        row = result.to_dict()
        assert row["config"]["scenario"] == "a100-256"
        assert row["config_hash"] == result.config_hash
        assert row["aggregate"]["replicas"] == 2


@pytest.fixture
def builds(monkeypatch):
    """Profile names of the failure models built from here on, starting
    from an empty per-process cache."""
    sweep._scenario_model.cache_clear()
    names = []
    init = FailureModel.__init__

    def counting(self, profile):
        names.append(profile.name)
        init(self, profile)

    monkeypatch.setattr(FailureModel, "__init__", counting)
    return names


def _model_spans(trace_dir):
    return [s for s in read_trace_dir(trace_dir).spans if s["name"] == "sim.model"]


class TestOneModelPerScenario:
    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    def test_shared_model_matches_a_fresh_model_per_replica(self, scenario):
        # The reference is the engine as it ran before the cache: a model
        # built from the replica's own profile for every replica.  At this
        # size every replica checkpoints, and each scenario has a replica
        # that is interrupted.
        config = SweepConfig(scenario=scenario, policy="spare:2", replicas=2,
                             seed=13, n_gpus=128, useful_hours=48.0)
        reference = []
        for replica in range(config.replicas):
            simulation = config.build()
            reference.append(simulate_training_run(
                simulation, FailureModel(simulation.profile),
                seed=config.seed, replica=replica,
            ))
        assert run_sweep(config, workers=1).runs == tuple(reference)

    def test_a_serial_sweep_builds_one_model(self, builds):
        run_sweep(SweepConfig(replicas=5, **_BASE), workers=1)
        assert builds == ["delta-ampere"]

    def test_the_policy_sweeps_share_one_model(self, builds):
        EXPERIMENTS["sim.policies"].runner(ExperimentContext(study=None, seed=7))
        assert builds == ["delta-ampere"]

    def test_a_traced_serial_sweep_has_one_model_span(self, builds, tmp_path):
        obs.activate(tmp_path / "trace")
        try:
            run_sweep(SweepConfig(replicas=5, **_BASE), workers=1)
        finally:
            obs.deactivate()
        (span,) = _model_spans(tmp_path / "trace")
        assert span["attrs"] == {"scenario": "a100-256"}
        assert span["counters"] == {"sim.root_xids": 10}

    def test_two_policies_of_one_scenario_share_one_model_span(self, builds, tmp_path):
        obs.activate(tmp_path / "trace")
        try:
            for policy in ("ckpt", "elastic"):
                run_sweep(SweepConfig(replicas=2, **{**_BASE, "policy": policy}),
                          workers=1)
        finally:
            obs.deactivate()
        assert len(_model_spans(tmp_path / "trace")) == 1

    def test_pool_workers_build_their_own_and_the_parent_none(
        self, builds, tmp_path, capsys
    ):
        trace = tmp_path / "trace"
        assert main(["simulate", "--scenario", "a100-256", "--policy", "spare:2",
                     "--replicas", "6", "--gpus", "32", "--useful-hours", "12",
                     "--seed", "13", "--workers", "2", "--trace", str(trace)]) == 0
        per_process = {}
        for span in _model_spans(trace):
            per_process[span["pid"]] = per_process.get(span["pid"], 0) + 1
        assert os.getpid() not in per_process
        assert 1 <= len(per_process) <= 2
        assert set(per_process.values()) == {1}
        assert builds == []  # the parent built none
