"""The session: one object that owns a run's wiring, end to end.

Before this layer existed, every CLI command re-implemented the same
dance — synthesize or load a dataset, maybe read through a columnar
store (validating its scale/seed), build a :class:`DeltaStudy`, pick the
effective scale — in slightly different ways.  ``Session`` is that dance
written once:

* the dataset (in-memory synthesis, or a directory written by
  ``synthesize``) is resolved lazily and cached;
* ``--store DIR`` read-through happens in exactly one place, including
  the build-on-first-use and the scale/seed validation against the
  store's recorded metadata;
* the :class:`DeltaStudy` is built lazily, cached, and shared by every
  experiment the session runs;
* experiments run through :meth:`run` / :meth:`run_many`, which stamp
  each result's manifest with the session's
  :meth:`~repro.session.config.RunConfig.digest`;
* ``jobs > 1`` fans :meth:`run_many` over a process pool
  (:mod:`repro.session.parallel`) with the shared study shipped to the
  workers — byte-identical to the serial path.
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING, List, Optional, Sequence

from repro.session.config import RunConfig, SessionError

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.pipeline import DeltaStudy
    from repro.results.artifact import ExperimentResult


class Session:
    """A lazily-wired run: config in, cached study and results out."""

    def __init__(self, config: RunConfig) -> None:
        self.config = config
        self._dataset = None
        self._study: Optional["DeltaStudy"] = None

    @classmethod
    def from_args(cls, args, **overrides) -> "Session":
        return cls(RunConfig.from_args(args, **overrides))

    # ------------------------------------------------------------------
    # Dataset resolution
    # ------------------------------------------------------------------

    @property
    def dataset(self):
        """The in-memory synthesized dataset (on-disk runs never build one)."""
        if self.config.dataset is not None:
            raise ValueError(
                "session reads an on-disk dataset; there is no in-memory one"
            )
        if self._dataset is None:
            from repro import obs
            from repro.datasets import synthesize_delta

            with obs.span(
                "session.dataset.synthesize",
                scale=self.config.scale, seed=self.config.seed,
            ):
                self._dataset = synthesize_delta(
                    scale=self.config.scale, seed=self.config.seed
                )
        return self._dataset

    @property
    def scale(self) -> float:
        """The effective observation-window scale of the run."""
        if self.config.dataset is not None or self._dataset is None:
            return self.config.scale
        return self._dataset.config.scale

    # ------------------------------------------------------------------
    # Store read-through
    # ------------------------------------------------------------------

    def _open_store(self, make_source, *, meta: dict, workers: int = 1):
        """Open ``config.store``, building it on first use.

        ``make_source`` is called only when the store is empty (so the
        raw logs are parsed exactly once per dataset, not once per
        analysis).  A non-empty store must have been built for the same
        scale/seed — silently reusing someone else's records would be
        worse than slow.
        """
        from repro.store import EventStore, StoreError

        store = EventStore.open_or_create(self.config.store, meta=meta)
        if store.n_records == 0:
            store.ingest(make_source(), workers=workers)
            return store
        for key in ("scale", "seed"):
            want, have = meta.get(key), store.meta.get(key)
            if want is not None and have is not None and want != have:
                raise StoreError(
                    f"store at {self.config.store} was built with "
                    f"{key}={have}, this run wants {key}={want}; pass a "
                    f"matching --{key} or a different --store directory"
                )
        return store

    # ------------------------------------------------------------------
    # Study construction (the one wiring path)
    # ------------------------------------------------------------------

    @property
    def study(self) -> "DeltaStudy":
        """The run's :class:`DeltaStudy`, built once and cached."""
        if self._study is None:
            from repro import obs

            with obs.span("session.study.build"):
                self._study = self._build_study()
        return self._study

    def _build_study(self) -> "DeltaStudy":
        if self.config.dataset is not None:
            return self._study_from_directory(self.config.dataset)
        return self._study_from_memory()

    def _study_from_directory(self, dataset_dir: Path) -> "DeltaStudy":
        from repro.core import DeltaStudy
        from repro.faults import AMPERE_CALIBRATION
        from repro.slurm import SlurmDatabase

        config = self.config
        slurm_db = SlurmDatabase.load(dataset_dir / "slurm.jsonl")
        window_hours = AMPERE_CALIBRATION.window_days * 24.0 * config.scale
        n_nodes = AMPERE_CALIBRATION.reference_node_count
        if config.store is not None:
            from repro.pipeline import FileSetSource

            store = self._open_store(
                lambda: FileSetSource(dataset_dir / "logs"),
                meta={
                    "scale": config.scale,
                    "seed": config.seed,
                    "window_hours": window_hours,
                    "n_nodes": n_nodes,
                    "dataset": str(dataset_dir),
                },
                workers=config.workers,
            )
            return DeltaStudy.from_store(
                store, slurm_db=slurm_db, workers=config.workers
            )
        return DeltaStudy.from_log_directory(
            dataset_dir / "logs",
            window_hours=window_hours,
            n_nodes=n_nodes,
            slurm_db=slurm_db,
            workers=config.workers,
        )

    def _study_from_memory(self) -> "DeltaStudy":
        from repro.core import DeltaStudy

        dataset = self.dataset
        if self.config.store is not None:
            from repro.pipeline import LinesSource

            store = self._open_store(
                lambda: LinesSource(dataset.log_lines()),
                meta={
                    "scale": dataset.config.scale,
                    "seed": dataset.config.seed,
                    "window_hours": dataset.window_seconds / 3600.0,
                    "n_nodes": dataset.reference_node_count,
                    "n_gpus": dataset.reference_gpu_count,
                },
            )
            return DeltaStudy.from_store(
                store, slurm_db=dataset.slurm_db, workers=self.config.workers
            )
        return DeltaStudy.from_dataset(dataset, workers=self.config.workers)

    # ------------------------------------------------------------------
    # Experiment execution
    # ------------------------------------------------------------------

    def run(self, identifier: str) -> "ExperimentResult":
        """Run one registered experiment against the session's study.

        When tracing is active the result's manifest is stamped with the
        spans/counters this experiment produced (trace-directory copy
        only — the default serialization stays byte-identical).
        """
        from repro import obs
        from repro.experiments import run_experiment

        tracer = obs.active()
        before = tracer.snapshot() if tracer is not None else None
        with obs.span("session.experiment", experiment=identifier):
            result = run_experiment(
                identifier,
                self.study,
                scale=self.scale,
                seed=self.config.seed,
                workers=self.config.workers,
                run_digest=self.config.digest(),
            )
        if tracer is not None:
            result = obs.stamp_result(result, tracer=tracer, before=before)
        return result

    def run_many(
        self, identifiers: Sequence[str], *, jobs: Optional[int] = None
    ) -> List["ExperimentResult"]:
        """Run several experiments, optionally fanned over processes.

        Results come back in ``identifiers`` order whatever the job
        count, and each result is byte-identical to what :meth:`run`
        would have produced — runners are pure functions of their
        :class:`~repro.experiments.ExperimentContext`, so shipping the
        shared study to worker processes is a pure speed knob.
        """
        identifiers = list(identifiers)
        jobs = self.config.jobs if jobs is None else jobs
        if jobs < 1:
            raise SessionError(f"--jobs must be >= 1, got {jobs}")
        jobs = min(jobs, len(identifiers))
        if jobs <= 1:
            return [self.run(identifier) for identifier in identifiers]
        from repro.session.parallel import run_parallel

        return run_parallel(self, identifiers, jobs=jobs)
