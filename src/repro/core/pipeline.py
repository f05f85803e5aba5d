"""End-to-end study pipeline (paper Figure 4).

``DeltaStudy`` chains the stages — extraction, coalescing, statistics,
propagation, job impact, availability, counterfactuals — over one dataset's
observables (raw log lines + Slurm database).  It never touches generation
ground truth, so paper-vs-measured comparisons are genuine inferences.
"""

from __future__ import annotations

from functools import wraps
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, TypeVar

from repro.core.availability import AvailabilityAnalyzer
from repro.core.coalesce import CoalesceConfig, CoalescedError, coalesce_errors
from repro.core.counterfactual import CounterfactualAnalyzer
from repro.core.jobimpact import JobImpactAnalyzer
from repro.core.mtbe import ErrorStatistics
from repro.core.parsing import XidBatch
from repro.core.persistence import PersistenceAnalyzer
from repro.core.propagation import PropagationAnalyzer
from repro.slurm.accounting import SlurmDatabase

if TYPE_CHECKING:  # pragma: no cover
    from repro.pipeline.sources import Source

_Analyzer = TypeVar("_Analyzer")


def _built_once(
    build: Callable[["DeltaStudy"], _Analyzer]
) -> Callable[["DeltaStudy"], _Analyzer]:
    """Make ``build`` run once per study; later calls return its object."""

    @wraps(build)
    def analyzer(study: "DeltaStudy") -> _Analyzer:
        if build.__name__ not in study._analyzers:
            study._analyzers[build.__name__] = build(study)
        return study._analyzers[build.__name__]  # type: ignore[return-value]

    return analyzer


class DeltaStudy:
    """Run the characterization pipeline over one dataset's observables.

    Stage I rides :mod:`repro.pipeline` — the extraction front-end
    shared with ``monitor``, ``store build`` and ``replay --logs``.  The
    first argument is a :class:`~repro.pipeline.sources.Source`;
    ``workers`` shards extraction across processes when the source has
    several shards (file sets and stores do, in-memory line streams do
    not).  Stage I yields
    one :class:`~repro.core.parsing.XidBatch`, which Stage II hands
    straight to batch Algorithm 1
    (:func:`~repro.core.coalesce.coalesce_errors`); the
    :class:`~repro.core.streaming.StreamingCoalescer` it matches serves
    the live paths.  Each Stage-III analyzer is built on first use, and
    every later call returns that same object.
    """

    def __init__(
        self,
        source: "Source",
        *,
        window_hours: float,
        n_nodes: int,
        n_gpus: Optional[int] = None,
        slurm_db: SlurmDatabase | None = None,
        coalesce_config: CoalesceConfig | None = None,
        workers: int = 1,
    ) -> None:
        self.window_hours = window_hours
        self.n_nodes = n_nodes
        #: GPU population of the monitored partition (spatial analyses);
        #: ``None`` when the source does not describe its inventory.
        self.n_gpus = n_gpus
        self.slurm_db = slurm_db
        self.coalesce_config = coalesce_config or CoalesceConfig()
        self.workers = workers
        self.source = source
        #: Provenance of a store-backed study (recorded in run manifests).
        self.store_hash: Optional[str] = None
        self.dataset_label: Optional[str] = None
        self._records: Optional[XidBatch] = None
        self._errors: Optional[List[CoalescedError]] = None
        self._analyzers: Dict[str, object] = {}

    @classmethod
    def from_dataset(cls, dataset, **kwargs) -> "DeltaStudy":
        """Build from a :class:`repro.datasets.DeltaDataset`."""
        from repro.pipeline.sources import LinesSource

        return cls(
            LinesSource(dataset.log_lines()),
            window_hours=dataset.window_hours,
            n_nodes=dataset.reference_node_count,
            n_gpus=dataset.reference_gpu_count,
            slurm_db=dataset.slurm_db,
            **kwargs,
        )

    @classmethod
    def from_records(
        cls, records: XidBatch, *, window_hours: float, n_nodes: int, **kwargs
    ) -> "DeltaStudy":
        """Build over already-extracted records (Stage I pre-paid).

        The batch seeds the Stage-I cache directly, so the study coalesces
        and analyzes exactly these records.  ``Session.run_many`` sends its
        ``--jobs`` workers a study rebuilt this way, with the parent's
        provenance, unless the study is store-backed: such workers read the
        store instead.
        """
        from repro.pipeline.sources import RecordsSource

        study = cls(
            RecordsSource(records),
            window_hours=window_hours,
            n_nodes=n_nodes,
            **kwargs,
        )
        study._records = records
        return study

    @classmethod
    def from_store(
        cls,
        store,
        *,
        slurm_db: SlurmDatabase | None = None,
        workers: int = 1,
        **kwargs,
    ) -> "DeltaStudy":
        """Build over a built :class:`~repro.store.store.EventStore`.

        ``store`` is an :class:`EventStore` or its directory.  Stage I
        becomes a columnar decode of every segment; the window and node
        count come from the metadata ``repro-delta store build`` records.
        Store segments are re-iterable, so the study keeps only its
        coalesced errors, not the decoded batch, and its run manifests
        carry the store content hash.
        """
        from repro.store import EventStore, StoreSource

        if not isinstance(store, EventStore):
            store = EventStore.open(store)
        meta = store.meta
        for key in ("window_hours", "n_nodes"):
            if key not in meta:
                raise ValueError(f"{key} not recorded in store meta")
        if "n_gpus" in meta:
            kwargs.setdefault("n_gpus", int(meta["n_gpus"]))  # type: ignore[arg-type]
        study = cls(
            StoreSource(store),
            window_hours=float(meta["window_hours"]),  # type: ignore[arg-type]
            n_nodes=int(meta["n_nodes"]),  # type: ignore[arg-type]
            slurm_db=slurm_db,
            workers=workers,
            **kwargs,
        )
        study.store_hash = store.content_hash()
        study.dataset_label = f"store:{store.directory}"
        return study

    # ------------------------------------------------------------------
    # Stages
    # ------------------------------------------------------------------

    @property
    def records(self) -> XidBatch:
        """Stage I: the extracted record batch (cached)."""
        if self._records is None:
            from repro.pipeline.extract import extract_records

            self._records = extract_records(self.source, workers=self.workers)
        return self._records

    @property
    def errors(self) -> List[CoalescedError]:
        """Stage I + II: extract then coalesce (cached).

        The batch stays cached only when :attr:`records` already read it or
        the source is one-shot (in-memory lines or records), which a second
        pass could not read again; re-iterable sources (file sets, stores)
        are extracted afresh and only the coalesced errors stay resident.
        """
        if self._errors is None:
            from repro import obs

            if self._records is None and self.source.reiterable:
                from repro.pipeline.extract import extract_records

                batch = extract_records(self.source, workers=self.workers)
            else:
                batch = self.records
            with obs.span("pipeline.coalesce", engine="vectorized") as span:
                self._errors = coalesce_errors(batch, self.coalesce_config)
                span.add("pipeline.errors", len(self._errors))
        return self._errors

    @_built_once
    def error_statistics(self) -> ErrorStatistics:
        return ErrorStatistics(self.errors, self.window_hours, self.n_nodes)

    @_built_once
    def persistence(self) -> PersistenceAnalyzer:
        stats = self.error_statistics()
        return PersistenceAnalyzer(stats.errors)

    @_built_once
    def propagation(self) -> PropagationAnalyzer:
        stats = self.error_statistics()
        return PropagationAnalyzer(stats.errors)

    @_built_once
    def job_impact(self) -> JobImpactAnalyzer:
        if self.slurm_db is None:
            raise ValueError("job impact analysis requires a Slurm database")
        return JobImpactAnalyzer(self.slurm_db, self.errors)

    @_built_once
    def availability(self) -> AvailabilityAnalyzer:
        if self.slurm_db is None:
            raise ValueError("availability analysis requires node events")
        return AvailabilityAnalyzer(self.slurm_db.node_events, self.error_statistics())

    @_built_once
    def counterfactual(self) -> CounterfactualAnalyzer:
        mttr = (
            self.availability().mttr_hours() if self.slurm_db is not None else 0.3
        )
        return CounterfactualAnalyzer(self.error_statistics(), mttr_hours=mttr)
