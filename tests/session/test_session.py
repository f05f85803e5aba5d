"""The session layer: RunConfig, Session wiring, and parallel identity."""

from __future__ import annotations

import argparse
import json
from pathlib import Path

import pytest

from repro.session import (
    DEFAULT_SCALE,
    DEFAULT_SEED,
    RunConfig,
    Session,
    SessionError,
)

SCALE, SEED = 0.004, 3


def make_config(**kwargs):
    kwargs.setdefault("scale", SCALE)
    kwargs.setdefault("seed", SEED)
    return RunConfig(**kwargs)


class TestRunConfig:
    def test_defaults(self):
        config = RunConfig()
        assert config.scale == DEFAULT_SCALE
        assert config.seed == DEFAULT_SEED
        assert config.workers == 1
        assert config.jobs == 1
        assert config.dataset is None and config.store is None

    @pytest.mark.parametrize("bad", [
        {"scale": 0.0}, {"scale": -1.0},
        {"workers": 0}, {"workers": -2},
        {"jobs": 0},
        {"format": "yaml"},
        {"scale": float("nan")}, {"scale": float("inf")},
    ])
    def test_validation(self, bad):
        with pytest.raises(SessionError):
            RunConfig(**bad)

    def test_validation_is_exit_2_material(self):
        """SessionError subclasses ValueError and maps to CLI exit 2."""
        assert issubclass(SessionError, ValueError)

    def test_hashable_and_comparable(self):
        a, b = make_config(), make_config()
        assert a == b and hash(a) == hash(b)
        assert len({a, b, make_config(seed=9)}) == 2

    def test_digest_ignores_execution_and_presentation_knobs(self):
        base = make_config()
        for variant in (
            make_config(workers=8),
            make_config(jobs=4),
            make_config(format="json"),
            make_config(output_dir=Path("/tmp/out")),
        ):
            assert variant.digest() == base.digest()

    def test_digest_tracks_data_determining_fields(self):
        base = make_config()
        assert make_config(scale=0.005).digest() != base.digest()
        assert make_config(seed=4).digest() != base.digest()
        assert make_config(store=Path("s")).digest() != base.digest()
        assert make_config(dataset=Path("d")).digest() != base.digest()

    def test_from_args_resolves_all_cores(self, monkeypatch):
        """An absent --workers counts only the CPUs this process may use."""
        import os

        args = argparse.Namespace(scale=SCALE, seed=SEED, workers=None)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        # Pinned to one CPU (taskset -c 3) on a 64-CPU host.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3},
                            raising=False)
        assert RunConfig.from_args(args).workers == 1
        # Platforms without affinity fall back to the CPU count.
        monkeypatch.delattr(os, "sched_getaffinity")
        assert RunConfig.from_args(args).workers == 64
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert RunConfig.from_args(args).workers == 1

    def test_from_args_ignores_absent_flags(self):
        config = RunConfig.from_args(argparse.Namespace(seed=11))
        assert config.seed == 11
        assert config.scale == DEFAULT_SCALE
        assert config.workers == 1  # no --workers flag -> serial


class TestSession:
    def test_study_is_cached(self):
        session = Session(make_config())
        assert session.study is session.study

    def test_scale_tracks_dataset(self):
        session = Session(make_config())
        assert session.scale == SCALE
        session.study  # force the in-memory synthesis
        assert session.scale == session.dataset.config.scale

    def test_dataset_refuses_on_disk_runs(self, tmp_path):
        session = Session(make_config(dataset=tmp_path))
        with pytest.raises(ValueError):
            session.dataset

    def test_run_stamps_the_config_digest(self):
        session = Session(make_config())
        result = session.run("table1")
        assert result.manifest.config_hashes["run"] == \
            session.config.digest()

    def test_run_many_rejects_bad_jobs(self):
        # run_many fans out over config.jobs, which the config checks.
        with pytest.raises(SessionError):
            make_config(jobs=0)

    def test_store_read_through_builds_once(self, tmp_path):
        from repro.store import EventStore

        store_dir = tmp_path / "events"
        session = Session(make_config(store=store_dir))
        session.study
        n_records = EventStore.open(store_dir).n_records
        assert n_records > 0
        # A second session re-opens the store instead of re-ingesting.
        again = Session(make_config(store=store_dir))
        assert again.study.store_hash == session.study.store_hash
        assert EventStore.open(store_dir).n_records == n_records

    def test_store_scale_mismatch_raises(self, tmp_path):
        from repro.store import StoreError

        store_dir = tmp_path / "events"
        Session(make_config(store=store_dir)).study
        with pytest.raises(StoreError):
            Session(make_config(scale=0.005, store=store_dir)).study


class TestParallelIdentity:
    IDS = ("table1", "fig5", "table2")

    @staticmethod
    def render(results):
        return [
            (r.render_json(), json.dumps(r.manifest.to_dict(), sort_keys=True))
            for r in results
        ]

    def test_jobs_fanout_is_byte_identical(self):
        serial = Session(make_config()).run_many(self.IDS)
        fanned = Session(make_config(jobs=2)).run_many(self.IDS)
        assert self.render(serial) == self.render(fanned)

    def test_store_backed_fanout_is_byte_identical(self, tmp_path):
        store_dir = tmp_path / "events"
        serial = Session(make_config(store=store_dir)).run_many(self.IDS)
        fanned = Session(
            make_config(store=store_dir, jobs=3)
        ).run_many(self.IDS)
        assert self.render(serial) == self.render(fanned)

    def test_store_backed_fanout_leaves_the_store_to_the_workers(
        self, tmp_path, monkeypatch
    ):
        """The parent never decodes the store: each worker streams it."""
        import os

        from repro.core import DeltaStudy

        store_dir = tmp_path / "events"
        Session(make_config(store=store_dir)).study  # builds the store
        parent, decoded = os.getpid(), []
        records = DeltaStudy.records

        def counting(study):
            if os.getpid() == parent:
                decoded.append(study)
            return records.fget(study)

        monkeypatch.setattr(DeltaStudy, "records", property(counting))
        Session(make_config(store=store_dir, jobs=2)).run_many(self.IDS)
        assert decoded == []

    def test_jobs_cap_at_identifier_count(self):
        # jobs > len(ids) must not spawn idle workers or change results.
        session = Session(make_config(jobs=8))
        results = session.run_many(["table1"])
        assert [r.experiment_id for r in results] == ["table1"]
