"""Parallel experiment execution: fan runner ids over a process pool.

Experiment runners are pure functions of their
:class:`~repro.experiments.ExperimentContext` — given the same study,
scale and seed they produce the same :class:`ExperimentResult` — so
running them in worker processes is a pure speed knob.  The shared study
is built **once** in the parent and shipped to each worker exactly once
(via the pool initializer), either as:

* the store directory, when the session is store-backed — workers
  re-open the store and Stage I is a columnar decode; or
* the parent's extracted record list, pickled — Stage I is pre-paid and
  the workers coalesce the exact records the parent extracted.

Both reconstructions carry the parent study's full provenance
(window/node/GPU counts, store hash, dataset label), so the
manifests written by a parallel run are byte-identical to a serial one.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.pipeline import DeltaStudy
    from repro.results.artifact import ExperimentResult
    from repro.session.session import Session


@dataclass(frozen=True)
class StudySpec:
    """A picklable recipe for rebuilding the parent's study in a worker."""

    window_hours: float
    n_nodes: int
    n_gpus: Optional[int]
    scale: float
    seed: int
    workers: int
    run_digest: str
    #: Exactly one of the two transports is set.
    store_dir: Optional[str] = None
    records: Optional[tuple] = None
    slurm_db: object = None
    coalesce_config: object = None
    store_hash: Optional[str] = None
    dataset_label: Optional[str] = None
    #: Trace context (``repro.obs.TraceContext``) when the dispatching
    #: process is tracing; workers re-activate it so their spans land in
    #: the same trace directory, parented under the dispatch span.
    trace: object = None


def spec_for(session: "Session") -> StudySpec:
    """Capture the session's study as a worker-shippable spec."""
    from repro import obs

    study = session.study
    common = dict(
        trace=obs.current_context(label="job"),
        window_hours=float(study.window_hours),
        n_nodes=int(study.n_nodes),
        n_gpus=study.n_gpus,
        scale=session.scale,
        seed=session.config.seed,
        workers=session.config.workers,
        run_digest=session.config.digest(),
        slurm_db=study.slurm_db,
        coalesce_config=study.coalesce_config,
        store_hash=study.store_hash,
        dataset_label=study.dataset_label,
    )
    if session.config.store is not None and study.store_hash is not None:
        return StudySpec(store_dir=str(session.config.store), **common)
    # ``study.records`` materializes Stage I once in the parent; every
    # worker then starts from the identical record list.
    return StudySpec(records=tuple(study.records), **common)


def rebuild_study(spec: StudySpec) -> "DeltaStudy":
    """Reconstruct the parent's study from a spec (runs in the worker)."""
    from repro.core.pipeline import DeltaStudy

    if spec.store_dir is not None:
        study = DeltaStudy.from_store(
            spec.store_dir,
            window_hours=spec.window_hours,
            n_nodes=spec.n_nodes,
            slurm_db=spec.slurm_db,
        )
    else:
        study = DeltaStudy.from_records(
            spec.records,
            window_hours=spec.window_hours,
            n_nodes=spec.n_nodes,
            n_gpus=spec.n_gpus,
            slurm_db=spec.slurm_db,
            coalesce_config=spec.coalesce_config,
        )
    if spec.n_gpus is not None:
        study.n_gpus = spec.n_gpus
    study.store_hash = spec.store_hash
    study.dataset_label = spec.dataset_label
    return study


# -- worker side -----------------------------------------------------------

#: Per-worker state, installed once by the pool initializer so the study
#: is unpickled/rebuilt once per worker, not once per experiment.
_WORKER: Dict[str, object] = {}


def _init_worker(spec: StudySpec) -> None:
    from repro import obs

    obs.activate_context(spec.trace)  # type: ignore[arg-type]
    _WORKER["spec"] = spec
    with obs.span("session.study.rebuild"):
        _WORKER["study"] = rebuild_study(spec)


def _run_one(identifier: str) -> "ExperimentResult":
    from repro import obs
    from repro.experiments import run_experiment

    spec: StudySpec = _WORKER["spec"]  # type: ignore[assignment]
    tracer = obs.active()
    before = tracer.snapshot() if tracer is not None else None
    with obs.span("session.experiment", experiment=identifier):
        result = run_experiment(
            identifier,
            _WORKER["study"],  # type: ignore[arg-type]
            scale=spec.scale,
            seed=spec.seed,
            workers=spec.workers,
            run_digest=spec.run_digest,
        )
    if tracer is not None:
        result = obs.stamp_result(result, tracer=tracer, before=before)
    return result


# -- parent side -----------------------------------------------------------


def run_parallel(
    session: "Session", identifiers: Sequence[str], *, jobs: int
) -> List["ExperimentResult"]:
    """Run ``identifiers`` over ``jobs`` worker processes, in order.

    ``pool.map`` preserves input order, so the result list is positioned
    exactly as the serial path would produce it regardless of which
    worker finishes first.
    """
    from repro import obs

    with obs.span("session.dispatch", jobs=jobs, experiments=len(identifiers)):
        # The spec captures the trace context *inside* the dispatch span,
        # so worker spans re-parent under it when the trace is read back.
        spec = spec_for(session)
        with ProcessPoolExecutor(
            max_workers=jobs, initializer=_init_worker, initargs=(spec,)
        ) as pool:
            return list(pool.map(_run_one, identifiers))
