"""End-to-end study pipeline (paper Figure 4).

``DeltaStudy`` chains the stages — extraction, coalescing, statistics,
propagation, job impact, availability, counterfactuals — over one dataset's
observables (raw log lines + Slurm database).  It never touches generation
ground truth, so paper-vs-measured comparisons are genuine inferences.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator, List, Optional, Union

from repro.core.availability import AvailabilityAnalyzer, AvailabilityReport
from repro.core.coalesce import CoalesceConfig, CoalescedError
from repro.core.counterfactual import CounterfactualAnalyzer, CounterfactualReport
from repro.core.jobimpact import JobImpactAnalyzer
from repro.core.mtbe import ErrorStatistics
from repro.core.parsing import RawXidRecord
from repro.core.persistence import PersistenceAnalyzer
from repro.core.propagation import PropagationAnalyzer, PropagationGraph
from repro.slurm.accounting import SlurmDatabase

if TYPE_CHECKING:  # pragma: no cover
    from repro.pipeline.sources import Source


@dataclass
class StudyReport:
    """Everything Stage III produces, bundled for report rendering."""

    statistics: ErrorStatistics
    persistence: PersistenceAnalyzer
    propagation_graph: PropagationGraph
    propagation: PropagationAnalyzer
    job_impact: Optional[JobImpactAnalyzer]
    availability: Optional[AvailabilityReport]
    counterfactual: Optional[CounterfactualReport]


class DeltaStudy:
    """Run the characterization pipeline over one dataset's observables.

    Stages I and II ride :mod:`repro.pipeline` — the staged ingestion
    pipeline shared with the monitor and the fleet health service.  The
    first argument accepts either an iterable of raw syslog lines (the
    historical in-memory shape) or any
    :class:`~repro.pipeline.sources.Source`; ``workers`` shards
    extraction across processes when the source supports it (file sets
    do, in-memory line streams do not).  Coalescing runs the vectorized
    batch engine; the streaming coalescer it matches serves the live
    paths.
    """

    def __init__(
        self,
        log_lines: Union[Iterable[str], "Source"],
        *,
        window_hours: float,
        n_nodes: int,
        n_gpus: Optional[int] = None,
        slurm_db: SlurmDatabase | None = None,
        coalesce_config: CoalesceConfig | None = None,
        propagation_window: float = 60.0,
        workers: int = 1,
    ) -> None:
        from repro.pipeline.sources import LinesSource, Source

        self.window_hours = window_hours
        self.n_nodes = n_nodes
        #: GPU population of the monitored partition (spatial analyses);
        #: ``None`` when the source does not describe its inventory.
        self.n_gpus = n_gpus
        self.slurm_db = slurm_db
        self.coalesce_config = coalesce_config or CoalesceConfig()
        self.propagation_window = propagation_window
        self.workers = workers
        if isinstance(log_lines, Source):
            self.source: Source = log_lines
        else:
            self.source = LinesSource(log_lines)
        #: Provenance of a store-backed study (recorded in run manifests).
        self.store_hash: Optional[str] = None
        self.dataset_label: Optional[str] = None
        self._records: Optional[List[RawXidRecord]] = None
        self._errors: Optional[List[CoalescedError]] = None

    @classmethod
    def from_dataset(cls, dataset, **kwargs) -> "DeltaStudy":
        """Build from a :class:`repro.datasets.DeltaDataset`."""
        return cls(
            dataset.log_lines(),
            window_hours=dataset.window_seconds / 3600.0,
            n_nodes=dataset.reference_node_count,
            n_gpus=dataset.reference_gpu_count,
            slurm_db=dataset.slurm_db,
            **kwargs,
        )

    @classmethod
    def from_records(
        cls,
        records: Iterable[RawXidRecord],
        *,
        window_hours: float,
        n_nodes: int,
        **kwargs,
    ) -> "DeltaStudy":
        """Build over already-extracted records (Stage I pre-paid).

        The session layer ships a parent study's record list to worker
        processes this way: the list seeds the Stage-I cache directly,
        so the rebuilt study coalesces and analyzes the exact records
        the parent extracted — the identity behind parallel experiment
        execution.
        """
        from repro.pipeline.sources import RecordsSource

        records = list(records)
        study = cls(
            RecordsSource(records),
            window_hours=window_hours,
            n_nodes=n_nodes,
            **kwargs,
        )
        study._records = records
        return study

    @classmethod
    def from_log_directory(
        cls,
        directory: str | Path,
        *,
        window_hours: float,
        n_nodes: int,
        slurm_db: SlurmDatabase | None = None,
        workers: int = 1,
        **kwargs,
    ) -> "DeltaStudy":
        """Build over an on-disk dataset (one log file per node).

        This is the shape where ``workers > 1`` pays off: the files shard
        across a process pool and merge back into one ordered stream.
        """
        from repro.pipeline.sources import FileSetSource

        return cls(
            FileSetSource(directory),
            window_hours=window_hours,
            n_nodes=n_nodes,
            slurm_db=slurm_db,
            workers=workers,
            **kwargs,
        )

    @classmethod
    def from_store(
        cls,
        store,
        *,
        window_hours: Optional[float] = None,
        n_nodes: Optional[int] = None,
        slurm_db: SlurmDatabase | None = None,
        query=None,
        workers: int = 1,
        **kwargs,
    ) -> "DeltaStudy":
        """Build over a built :class:`~repro.store.store.EventStore`.

        ``store`` is an :class:`EventStore` or its directory.  Stage I
        becomes a columnar decode with zone-map pushdown (pass ``query``
        to slice); ``window_hours`` / ``n_nodes`` default from the
        metadata ``repro-delta store build`` records.  The study streams
        records instead of materializing them (store segments are
        re-iterable), and its run manifests carry the store content hash.
        """
        from repro.store import MATCH_ALL, EventStore, StoreSource

        if not isinstance(store, EventStore):
            store = EventStore.open(store)
        meta = store.meta
        if window_hours is None:
            if "window_hours" not in meta:
                raise ValueError(
                    "window_hours not given and not recorded in store meta"
                )
            window_hours = float(meta["window_hours"])  # type: ignore[arg-type]
        if n_nodes is None:
            if "n_nodes" not in meta:
                raise ValueError(
                    "n_nodes not given and not recorded in store meta"
                )
            n_nodes = int(meta["n_nodes"])  # type: ignore[arg-type]
        if "n_gpus" in meta:
            kwargs.setdefault("n_gpus", int(meta["n_gpus"]))  # type: ignore[arg-type]
        study = cls(
            StoreSource(store, query=query if query is not None else MATCH_ALL),
            window_hours=window_hours,
            n_nodes=n_nodes,
            slurm_db=slurm_db,
            workers=workers,
            **kwargs,
        )
        study.store_hash = store.content_hash()
        study.dataset_label = f"store:{store.directory}"
        return study

    def to_store(
        self,
        directory: str | Path,
        *,
        segment_records: Optional[int] = None,
        meta: Optional[dict] = None,
    ):
        """Persist this study's record stream into an event store.

        Creates (or appends to an empty) store at ``directory`` and
        returns the :class:`~repro.store.store.EventStore`.  The study's
        window/node parameters are recorded as store metadata so a later
        :meth:`from_store` needs only the directory.
        """
        from repro.store import DEFAULT_SEGMENT_RECORDS, EventStore

        store_meta = {
            "window_hours": float(self.window_hours),
            "n_nodes": int(self.n_nodes),
        }
        if self.n_gpus is not None:
            store_meta["n_gpus"] = int(self.n_gpus)
        if meta:
            store_meta.update(meta)
        store = EventStore.open_or_create(directory, meta=store_meta)
        if store.n_records:
            raise ValueError(
                f"store at {directory} already holds {store.n_records} records"
            )
        store.append(
            self.iter_records(),
            segment_records=segment_records or DEFAULT_SEGMENT_RECORDS,
        )
        return store

    # ------------------------------------------------------------------
    # Stages
    # ------------------------------------------------------------------

    def iter_records(self) -> Iterator[RawXidRecord]:
        """Stage I as a stream.

        Yields from the cache when :attr:`records` already materialized;
        otherwise streams straight off the source — without building the
        full list when the source is re-iterable (file sets, stores),
        which is what lets store-backed studies run in O(open state)
        memory instead of O(record count).
        """
        if self._records is not None:
            yield from self._records
            return
        if self.source.reiterable:
            from repro.pipeline.extract import iter_source_records

            yield from iter_source_records(self.source, workers=self.workers)
            return
        # One-shot sources (in-memory lines/records) must materialize, or
        # a second stage pass would find the iterable already consumed.
        yield from self.records

    @property
    def records(self) -> List[RawXidRecord]:
        """Stage I: the extracted record stream (cached)."""
        if self._records is None:
            from repro.pipeline.extract import extract_records

            self._records = extract_records(self.source, workers=self.workers)
        return self._records

    @property
    def errors(self) -> List[CoalescedError]:
        """Stage I + II: extract then coalesce (cached).

        Coalescing consumes :meth:`iter_records`, so re-iterable sources
        stream through Stage II without the raw stream ever being
        materialized; the coalesced errors are what stays resident.
        """
        if self._errors is None:
            from repro.pipeline.stages import VectorizedCoalesce

            stage = VectorizedCoalesce(self.coalesce_config)
            self._errors = stage.run(self.iter_records()).errors
        return self._errors

    def error_statistics(self) -> ErrorStatistics:
        return ErrorStatistics(self.errors, self.window_hours, self.n_nodes)

    def persistence(self) -> PersistenceAnalyzer:
        stats = self.error_statistics()
        return PersistenceAnalyzer(stats.errors)

    def propagation(self) -> PropagationAnalyzer:
        stats = self.error_statistics()
        return PropagationAnalyzer(stats.errors, window=self.propagation_window)

    def job_impact(self) -> JobImpactAnalyzer:
        if self.slurm_db is None:
            raise ValueError("job impact analysis requires a Slurm database")
        return JobImpactAnalyzer(self.slurm_db, self.errors)

    def availability(self) -> AvailabilityAnalyzer:
        if self.slurm_db is None:
            raise ValueError("availability analysis requires node events")
        return AvailabilityAnalyzer(self.slurm_db.node_events, self.error_statistics())

    def counterfactual(self) -> CounterfactualAnalyzer:
        mttr = (
            self.availability().mttr_hours() if self.slurm_db is not None else 0.3
        )
        return CounterfactualAnalyzer(self.error_statistics(), mttr_hours=mttr)

    # ------------------------------------------------------------------

    def run(self) -> StudyReport:
        """Execute every stage and bundle the results."""
        propagation = self.propagation()
        return StudyReport(
            statistics=self.error_statistics(),
            persistence=self.persistence(),
            propagation=propagation,
            propagation_graph=propagation.analyze(),
            job_impact=self.job_impact() if self.slurm_db is not None else None,
            availability=(
                self.availability().report() if self.slurm_db is not None else None
            ),
            counterfactual=self.counterfactual().analyze(),
        )
