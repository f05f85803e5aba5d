"""Experiment registry: every paper table/figure as a named, runnable unit.

``EXPERIMENTS`` maps experiment IDs (``table1``, ``fig5``, ...) to runners
that take an :class:`ExperimentContext` (a prepared
:class:`~repro.core.pipeline.DeltaStudy` plus the run's scale/seed/workers)
and return a structured
:class:`~repro.results.artifact.ExperimentResult` — named metrics with
paper tolerance bands, typed tables, and a :class:`RunManifest` recording
provenance.  The CLI exposes them as ``repro-delta experiment <id>`` (text
or JSON) and ``repro-delta verify`` gates the tolerance-annotated subset;
DESIGN.md's experiment index is the prose version of this table.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.pipeline import DeltaStudy
from repro.results.artifact import (
    ExperimentResult,
    Metric,
    ResultTable,
    RunManifest,
    config_digest,
)

#: The scale the default CLI study runs at; Section 6's H100 dataset has no
#: scale knob of its own, so runners normalize the caller's scale against
#: this reference (``scale == DEFAULT_STUDY_SCALE`` maps to the full H100
#: window).
DEFAULT_STUDY_SCALE = 0.05


@dataclass(frozen=True)
class ExperimentContext:
    """Everything a runner needs: the study plus run provenance."""

    study: DeltaStudy
    scale: float = 1.0
    seed: int = 7
    workers: int = 1


@dataclass(frozen=True)
class Experiment:
    identifier: str
    paper_artifact: str
    description: str
    runner: Callable[[ExperimentContext], ExperimentResult]
    needs_jobs: bool = True
    #: Whether the experiment carries tolerance-annotated metrics that
    #: ``repro-delta verify`` should gate on.
    verified: bool = False


def _table1(ctx: ExperimentContext) -> ExperimentResult:
    from repro.core.report import table1_result
    from repro.faults.calibration import AMPERE_CALIBRATION

    return table1_result(
        ctx.study.error_statistics(), AMPERE_CALIBRATION, scale=ctx.scale
    )


def _table2(ctx: ExperimentContext) -> ExperimentResult:
    from repro.core.report import table2_result

    return table2_result(ctx.study.job_impact(), scale=ctx.scale)


def _table3(ctx: ExperimentContext) -> ExperimentResult:
    from repro.core.report import table3_result

    return table3_result(ctx.study.job_impact())


def _fig5(ctx: ExperimentContext) -> ExperimentResult:
    from repro.core.report import figure5_result

    return figure5_result(ctx.study.propagation())


def _fig6(ctx: ExperimentContext) -> ExperimentResult:
    from repro.core.report import figure6_result

    return figure6_result(ctx.study.propagation(), scale=ctx.scale)


def _fig7(ctx: ExperimentContext) -> ExperimentResult:
    from repro.core.report import figure7_result

    return figure7_result(ctx.study.propagation())


def _fig9(ctx: ExperimentContext) -> ExperimentResult:
    from repro.core.report import figure9_result

    return figure9_result(
        ctx.study.job_impact(), ctx.study.availability(), scale=ctx.scale
    )


def _overprovision(ctx: ExperimentContext) -> ExperimentResult:
    from repro.core.overprovision import OverprovisionConfig, OverprovisionSimulator
    from repro.core.report import overprovision_result

    # More window means more Monte-Carlo budget; the floor of 3 trials keeps
    # the default-scale run identical to the historical output.
    config = OverprovisionConfig(
        n_trials=max(3, round(3 * ctx.scale / DEFAULT_STUDY_SCALE)),
        seed=ctx.seed,
    )
    simulator = OverprovisionSimulator(config)
    result = overprovision_result(
        simulator.sweep(recovery_minutes=(5.0, 10.0, 20.0, 40.0),
                        availabilities=(0.995, 0.9987))
    )
    return result.with_manifest(
        RunManifest(run_id="", config_hashes={"overprovision": config_digest(config)})
    )


def _counterfactual(ctx: ExperimentContext) -> ExperimentResult:
    from repro.core.report import counterfactual_result

    return counterfactual_result(ctx.study.counterfactual().analyze())


def _spatial(ctx: ExperimentContext) -> ExperimentResult:
    from repro.core.report import spatial_result
    from repro.core.spatial import SpatialAnalyzer

    # GPU population from the study's inventory (falls back to the paper's
    # 848 Ampere GPUs when the study was built without one).
    n_gpus = ctx.study.n_gpus if ctx.study.n_gpus is not None else 848
    return spatial_result(
        SpatialAnalyzer(ctx.study.error_statistics().errors, n_gpus=n_gpus)
    )


def _h100(ctx: ExperimentContext) -> ExperimentResult:
    # Section 6 has its own dataset (the GH200 partition after Aug 2024);
    # the passed Ampere study is intentionally unused beyond provenance.
    from repro.core.h100 import H100Analyzer
    from repro.core.report import _metric
    from repro.datasets import synthesize_h100

    h100_scale = ctx.scale / DEFAULT_STUDY_SCALE
    h100_study = DeltaStudy.from_dataset(
        synthesize_h100(scale=h100_scale, seed=ctx.seed)
    )
    report = H100Analyzer(h100_study.error_statistics()).report()
    counts_table = ResultTable(
        title="Per-XID counts",
        headers=("XID", "Count"),
        rows=tuple((int(xid), int(count))
                   for xid, count in sorted(report.counts.items())),
    )
    metrics = (
        _metric("mtbe_node_hours", float(report.mtbe_node_hours),
                "sec6.mtbe_node_hours", unit="node-hours"),
        _metric("xid136_count", int(report.xid136_count),
                "sec6.xid136_count", scale=h100_scale),
        _metric("has_remap_anomaly", bool(report.has_remap_anomaly),
                "sec6.has_remap_anomaly"),
        _metric("rre_count", int(report.rre_count)),
        _metric("dbe_count", int(report.dbe_count)),
        _metric("rrf_count", int(report.rrf_count)),
    )
    return ExperimentResult(
        experiment_id="sec6",
        paper_artifact="Section 6",
        title="Section 6 - emerging H100 errors",
        renderer="h100",
        metrics=metrics,
        tables=(counts_table,),
    )


def _sim_result(
    identifier: str,
    paper_artifact: str,
    title: str,
    axis: str,
    rows: "List[Tuple[str, dict]]",
    hashes: Dict[str, str],
) -> ExperimentResult:
    table = ResultTable(
        title=title,
        headers=(axis, "goodput", "ettr_hours", "wasted_gpu_hours",
                 "completed_fraction"),
        rows=tuple(
            (
                str(label),
                float(aggregate["goodput"]["mean"]),
                float(aggregate["ettr_hours"]["mean"]),
                float(aggregate["wasted_gpu_hours"]["mean"]),
                float(aggregate["completed_fraction"]),
            )
            for label, aggregate in rows
        ),
    )
    metrics = tuple(
        Metric(name=f"goodput.{label}", value=float(aggregate["goodput"]["mean"]))
        for label, aggregate in rows
    )
    return ExperimentResult(
        experiment_id=identifier,
        paper_artifact=paper_artifact,
        title=title,
        renderer="sim_table",
        metrics=metrics,
        tables=(table,),
    ).with_manifest(RunManifest(run_id="", config_hashes=hashes))


def _sim_policies(ctx: ExperimentContext) -> ExperimentResult:
    from repro.sim import SweepConfig, run_sweep

    rows = []
    hashes: Dict[str, str] = {}
    for policy in ("none", "ckpt", "spare:4", "elastic"):
        config = SweepConfig(scenario="a100-256", policy=policy, replicas=3,
                             seed=ctx.seed, n_gpus=128, useful_hours=24.0)
        result = run_sweep(config)
        hashes[f"sweep.{policy}"] = result.config_hash
        rows.append((policy, result.aggregate))
    return _sim_result(
        "sim.policies", "Section 5 (what-if)",
        "What-if: recovery policies, 128-GPU day-long job, Ampere fleet",
        "policy", rows, hashes,
    )


def _sim_fleets(ctx: ExperimentContext) -> ExperimentResult:
    from repro.sim import SweepConfig, run_sweep

    rows = []
    hashes: Dict[str, str] = {}
    for scenario in ("a100-256", "h100-256", "a100-512-no-xid79"):
        config = SweepConfig(scenario=scenario, policy="spare:2", replicas=3,
                             seed=ctx.seed, n_gpus=128, useful_hours=24.0)
        result = run_sweep(config)
        hashes[f"sweep.{scenario}"] = result.config_hash
        rows.append((scenario, result.aggregate))
    return _sim_result(
        "sim.fleets", "Section 5.5/6 (what-if)",
        "What-if: fleets under hot-spare recovery (128 GPUs, 24 h useful)",
        "scenario", rows, hashes,
    )


def _pipeline_parity(ctx: ExperimentContext) -> ExperimentResult:
    """Methodology check: batch and streaming Coalesce stages agree.

    Runs the study's extracted records (sorted into the time order the
    extraction front-end's k-way merge produces for on-disk datasets)
    through both Coalesce implementations and compares the resulting
    error sequences and Table-1 headline statistics.
    """
    from repro.core.mtbe import ErrorStatistics
    from repro.core.report import _metric
    from repro.pipeline.stages import StreamingCoalesce, VectorizedCoalesce

    study = ctx.study
    records = sorted(
        study.records, key=lambda r: (r.time, r.node_id, r.pci_bus, r.xid)
    )
    batch = VectorizedCoalesce(study.coalesce_config).run(records)
    stream = StreamingCoalesce(study.coalesce_config).run(records)
    identical = [
        (e.time, e.gpu_key, e.xid, round(e.persistence, 9), e.n_raw)
        for e in batch.errors
    ] == [
        (e.time, e.gpu_key, e.xid, round(e.persistence, 9), e.n_raw)
        for e in stream.errors
    ]
    stats = {
        name: ErrorStatistics(out.errors, study.window_hours, study.n_nodes)
        for name, out in (("batch", batch), ("streaming", stream))
    }
    metrics = (
        _metric("raw_records", len(records)),
        _metric("batch_errors", int(stats["batch"].total_count)),
        _metric("batch_mtbe_node_hours",
                float(stats["batch"].overall_mtbe_node_hours())),
        _metric("streaming_errors", int(stats["streaming"].total_count)),
        _metric("streaming_mtbe_node_hours",
                float(stats["streaming"].overall_mtbe_node_hours())),
        _metric("sequences_identical", bool(identical),
                "pipeline.parity.sequences_identical"),
        _metric("streaming_alarms", len(stream.alarms)),
    )
    return ExperimentResult(
        experiment_id="pipeline.parity",
        paper_artifact="Section 3.2 (methodology)",
        title="Unified pipeline: Coalesce-stage parity (Algorithm 1)",
        renderer="pipeline_parity",
        metrics=metrics,
    )


def _generations(ctx: ExperimentContext) -> ExperimentResult:
    from repro.core.comparison import GenerationComparison
    from repro.core.report import generations_result

    return generations_result(
        GenerationComparison(ctx.study.error_statistics(), ctx.study.propagation())
    )


EXPERIMENTS: Dict[str, Experiment] = {
    e.identifier: e
    for e in (
        Experiment("table1", "Table 1",
                   "per-XID counts, MTBE, persistence", _table1,
                   needs_jobs=False, verified=True),
        Experiment("table2", "Table 2",
                   "job-failure probability per XID", _table2, verified=True),
        Experiment("table3", "Table 3",
                   "job distribution and elapsed statistics", _table3,
                   verified=True),
        Experiment("fig5", "Figure 5",
                   "intra-GPU hardware propagation", _fig5,
                   needs_jobs=False, verified=True),
        Experiment("fig6", "Figure 6",
                   "NVLink propagation and involvement", _fig6,
                   needs_jobs=False, verified=True),
        Experiment("fig7", "Figure 7",
                   "DBE recovery tree", _fig7, needs_jobs=False, verified=True),
        Experiment("fig9", "Figure 9",
                   "job impact, errors-vs-duration, unavailability", _fig9,
                   verified=True),
        Experiment("sec5.4", "Section 5.4",
                   "overprovisioning projection", _overprovision,
                   needs_jobs=False, verified=True),
        Experiment("sec5.5", "Section 5.5",
                   "counterfactual improvements", _counterfactual,
                   needs_jobs=False, verified=True),
        Experiment("sec4.2iii", "Section 4.2 (iii)",
                   "spatial concentration / offenders", _spatial,
                   needs_jobs=False, verified=True),
        Experiment("sec6", "Section 6",
                   "emerging H100 errors (own dataset)", _h100,
                   needs_jobs=False, verified=True),
        Experiment("sec7", "Section 7",
                   "generational comparison", _generations, needs_jobs=False),
        Experiment("sim.policies", "Section 5 (what-if)",
                   "recovery-policy sweep on the what-if engine",
                   _sim_policies, needs_jobs=False),
        Experiment("sim.fleets", "Section 5.5/6 (what-if)",
                   "A100 vs H100 vs no-Xid-79 fleets under hot spares",
                   _sim_fleets, needs_jobs=False),
        Experiment("pipeline.parity", "Section 3.2 (methodology)",
                   "batch vs streaming Algorithm-1 stage identity",
                   _pipeline_parity, needs_jobs=False, verified=True),
    )
}


def _build_manifest(
    identifier: str,
    ctx: ExperimentContext,
    extra_hashes: Dict[str, str],
    run_digest: Optional[str] = None,
) -> RunManifest:
    from repro import __version__

    study = ctx.study
    hashes = {"coalesce": config_digest(study.coalesce_config)}
    # Session-driven runs stamp the RunConfig digest: the manifest then
    # names the exact wiring (scale/seed/dataset/store) that produced it.
    if run_digest is not None:
        hashes["run"] = run_digest
    # Store-backed studies carry the store's content hash: the manifest
    # then names the exact bytes Stage I read, not just a directory.
    store_hash = getattr(study, "store_hash", None)
    if store_hash is not None:
        hashes["store"] = store_hash
    hashes.update(extra_hashes)
    return RunManifest(
        run_id=f"{identifier}@scale{ctx.scale:g}-seed{ctx.seed}",
        seed=ctx.seed,
        scale=ctx.scale,
        workers=ctx.workers,
        window_hours=float(study.window_hours),
        n_nodes=int(study.n_nodes),
        n_gpus=int(study.n_gpus) if study.n_gpus is not None else None,
        engine="vectorized",
        dataset=getattr(study, "dataset_label", None),
        config_hashes=hashes,
        package_version=__version__,
    )


def run_experiment(
    identifier: str,
    study: DeltaStudy,
    *,
    scale: float = 1.0,
    seed: int = 7,
    workers: int = 1,
    run_digest: Optional[str] = None,
) -> ExperimentResult:
    """Run one registered experiment against a prepared study.

    Returns the structured result with its :class:`RunManifest` attached;
    call :meth:`ExperimentResult.render_text` for the paper-style report.
    ``run_digest`` (a :meth:`RunConfig.digest`) lands in the manifest's
    ``config_hashes["run"]`` when the session layer drives the run.
    """
    experiment = EXPERIMENTS.get(identifier)
    if experiment is None:
        known = ", ".join(sorted(EXPERIMENTS))
        raise KeyError(f"unknown experiment {identifier!r}; known: {known}")
    if experiment.needs_jobs and study.slurm_db is None:
        raise ValueError(f"experiment {identifier!r} needs a Slurm database")
    ctx = ExperimentContext(study=study, scale=scale, seed=seed, workers=workers)
    result = experiment.runner(ctx)
    # Runners may attach a partial manifest carrying extra config hashes
    # (sweep digests, simulator configs); fold those into the full one.
    extra = dict(result.manifest.config_hashes) if result.manifest else {}
    return result.with_manifest(
        _build_manifest(identifier, ctx, extra, run_digest=run_digest)
    )


def list_experiments() -> List[Experiment]:
    return sorted(EXPERIMENTS.values(), key=lambda e: e.identifier)


def verified_experiments() -> List[Experiment]:
    """The tolerance-annotated subset ``repro-delta verify`` gates on."""
    return [e for e in list_experiments() if e.verified]
