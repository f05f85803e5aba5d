"""Paper-style experiment results, one function per table or figure.

Each ``*_result`` function turns one analyzer's output into a structured
:class:`~repro.results.artifact.ExperimentResult` — named metrics (with
the paper's expected values and tolerance bands attached where the paper
published a number), typed tables, and per-metric support counts.
``result.render_text()`` derives the historical monospace-text report from
an artifact; its output is byte-for-byte identical to the pre-refactor
strings (golden-tested), so ``examples/full_reproduction.py`` output still
doubles as the EXPERIMENTS.md comparison.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Mapping, Optional, Tuple

from repro.core.availability import AvailabilityAnalyzer
from repro.core.counterfactual import CounterfactualReport
from repro.core.jobimpact import JobImpactAnalyzer
from repro.core.mtbe import ErrorStatistics
from repro.core.propagation import PropagationAnalyzer
from repro.faults.calibration import (
    CalibrationProfile,
    PAPER_TABLE2,
    expectation_for,
)
from repro.faults.xid import MEMORY_MTBE_XIDS, XID_CATALOG, Xid
from repro.results.artifact import ExperimentResult, Metric, ResultTable
from repro.slurm.workload import SIZE_BUCKETS


def _abbrev(xid: int) -> str:
    try:
        return XID_CATALOG[Xid(xid)].abbreviation
    except (ValueError, KeyError):
        return f"XID {xid}"


def _metric(
    name: str,
    value,
    key: Optional[str] = None,
    *,
    scale: Optional[float] = None,
    unit: str = "",
    support: Optional[int] = None,
) -> Metric:
    """A metric, with its paper expectation attached when registered."""
    expectation = expectation_for(key, scale=scale) if key else None
    return Metric(name=name, value=value, unit=unit,
                  expectation=expectation, support=support)


# ---------------------------------------------------------------------------
# Table 1
# ---------------------------------------------------------------------------


def table1_result(
    stats: ErrorStatistics,
    profile: Optional[CalibrationProfile] = None,
    scale: float = 1.0,
) -> ExperimentResult:
    """Measured Table 1 with the paper's values alongside (count column
    scaled by the dataset's window scale)."""
    rows = []
    for row in stats.table1_rows():
        cal = profile.xids.get(Xid(row.xid)) if profile and row.xid in {
            int(x) for x in Xid} else None
        rows.append((
            int(row.xid),
            _abbrev(row.xid),
            int(row.count),
            round(cal.count * scale) if cal else "-",
            float(row.mtbe_all_nodes_hours),
            float(row.mtbe_per_node_hours),
            float(cal.paper_mtbe_per_node_hours) if cal else "-",
            float(row.persistence.mean),
            float(row.persistence.p50),
            float(row.persistence.p95),
            float(cal.paper_persistence_mean) if cal else "-",
            float(cal.paper_persistence_p50) if cal else "-",
            float(cal.paper_persistence_p95) if cal else "-",
        ))
    table = ResultTable(
        title="Table 1 - GPU resilience statistics (measured vs paper)",
        headers=(
            "XID", "Event", "Count", "Count(paper*)",
            "MTBE all (h)", "MTBE/node (h)", "MTBE/node paper",
            "Pers. mean", "P50", "P95", "mean paper", "P50 paper", "P95 paper",
        ),
        rows=tuple(rows),
    )
    memory_support = sum(stats.count(int(x)) for x in MEMORY_MTBE_XIDS)
    metrics = (
        _metric("total_errors", int(stats.total_count),
                "table1.total_errors", scale=scale),
        _metric("overall_mtbe_node_hours",
                float(stats.overall_mtbe_node_hours()),
                "table1.overall_mtbe_node_hours", unit="node-hours"),
        _metric("memory_vs_hardware_ratio",
                float(stats.memory_vs_hardware_ratio()),
                "table1.memory_vs_hardware_ratio", support=memory_support),
        _metric("excluded_count", int(stats.excluded_count)),
    )
    return ExperimentResult(
        experiment_id="table1",
        paper_artifact="Table 1",
        title=table.title,
        renderer="table1",
        metrics=metrics,
        tables=(table,),
    )


# ---------------------------------------------------------------------------
# Table 2
# ---------------------------------------------------------------------------


def table2_result(impact: JobImpactAnalyzer, scale: float = 1.0) -> ExperimentResult:
    rows = []
    measured: Dict[int, Tuple[float, int]] = {}
    for row in impact.table2():
        paper = PAPER_TABLE2.get(Xid(row.xid)) if row.xid in {
            int(x) for x in Xid} else None
        probability = float(row.failure_probability * 100.0)
        measured[int(row.xid)] = (probability, int(row.jobs_encountering))
        rows.append((
            int(row.xid),
            _abbrev(row.xid),
            int(row.gpu_failed_jobs),
            int(row.jobs_encountering),
            probability,
            float(paper.failure_pct) if paper else "-",
        ))
    table = ResultTable(
        title="Table 2 - job failure probability given an XID (measured vs paper)",
        headers=("XID", "GPU Error", "#GPU-failed", "#Encountering",
                 "P(fail|XID) %", "paper %"),
        rows=tuple(rows),
    )
    mmu = measured.get(int(Xid.MMU), (float("nan"), 0))
    uncontained = measured.get(int(Xid.UNCONTAINED), (float("nan"), 0))
    metrics = (
        _metric("total_gpu_failed", int(impact.total_gpu_failed()),
                "table2.total_gpu_failed", scale=scale),
        _metric("success_rate_pct", float(impact.success_rate() * 100.0),
                "table2.success_rate_pct", unit="%"),
        _metric("p_fail_mmu_pct", mmu[0], "table2.p_fail_mmu_pct",
                unit="%", support=mmu[1]),
        _metric("p_fail_uncontained_pct", uncontained[0],
                "table2.p_fail_uncontained_pct", unit="%",
                support=uncontained[1]),
    )
    return ExperimentResult(
        experiment_id="table2",
        paper_artifact="Table 2",
        title=table.title,
        renderer="table2",
        metrics=metrics,
        tables=(table,),
    )


# ---------------------------------------------------------------------------
# Table 3
# ---------------------------------------------------------------------------


def table3_result(impact: JobImpactAnalyzer) -> ExperimentResult:
    paper = {b.label: b for b in SIZE_BUCKETS}
    rows = []
    single_share = float("nan")
    total_jobs = 0
    for row in impact.table3():
        ref = paper.get(row.label)
        total_jobs += int(row.count)
        if row.label == "1":
            single_share = float(row.share * 100.0)
        rows.append((
            str(row.label),
            int(row.count),
            float(row.share * 100.0),
            float(ref.count_share * 100.0) if ref else "-",
            float(row.mean_minutes),
            float(ref.mean_minutes) if ref else "-",
            float(row.p50_minutes),
            float(ref.p50_minutes) if ref else "-",
            float(row.p99_minutes),
            float(ref.p99_minutes) if ref else "-",
            float(row.ml_gpu_hours / 1000.0),
            float(row.non_ml_gpu_hours / 1000.0),
        ))
    table = ResultTable(
        title="Table 3 - job distribution and elapsed statistics (measured vs paper)",
        headers=("GPUs", "Count", "Share %", "paper %", "Mean (min)", "paper",
                 "P50", "paper", "P99", "paper", "ML kGPUh", "non-ML kGPUh"),
        rows=tuple(rows),
    )
    metrics = (
        _metric("single_gpu_share_pct", single_share,
                "table3.single_gpu_share_pct", unit="%", support=total_jobs),
        _metric("n_jobs", total_jobs),
    )
    return ExperimentResult(
        experiment_id="table3",
        paper_artifact="Table 3",
        title=table.title,
        renderer="table3",
        metrics=metrics,
        tables=(table,),
    )


# ---------------------------------------------------------------------------
# Figures 5-7 (propagation)
# ---------------------------------------------------------------------------


def _xid_counts(propagation: PropagationAnalyzer) -> Counter:
    return Counter(e.xid for e in propagation.errors)


def figure5_result(propagation: PropagationAnalyzer) -> ExperimentResult:
    """Intra-GPU hardware propagation (paper Figure 5)."""
    h = propagation.hardware_paths()
    counts = _xid_counts(propagation)
    gsp = counts.get(int(Xid.GSP), 0)
    pmu = counts.get(int(Xid.PMU_SPI), 0)
    metrics = (
        _metric("p_gsp_self_or_terminal", float(h["p_gsp_self_or_terminal"]),
                "fig5.p_gsp_self_or_terminal", support=gsp),
        _metric("p_gsp_to_pmu", float(h["p_gsp_to_pmu"]),
                "fig5.p_gsp_to_pmu", support=gsp),
        _metric("p_gsp_isolated", float(h["p_gsp_isolated"]),
                "fig5.p_gsp_isolated", support=gsp),
        _metric("p_pmu_to_mmu", float(h["p_pmu_to_mmu"]),
                "fig5.p_pmu_to_mmu", support=pmu),
        _metric("t_pmu_to_mmu", float(h["t_pmu_to_mmu"]),
                unit="s", support=pmu),
        _metric("p_pmu_self", float(h["p_pmu_self"]),
                "fig5.p_pmu_self", support=pmu),
    )
    return ExperimentResult(
        experiment_id="fig5",
        paper_artifact="Figure 5",
        title="Figure 5 - intra-GPU hardware error propagation (measured vs paper)",
        renderer="fig5",
        metrics=metrics,
    )


def figure6_result(
    propagation: PropagationAnalyzer, scale: float = 1.0
) -> ExperimentResult:
    """NVLink intra/inter-GPU propagation (paper Figure 6)."""
    h = propagation.hardware_paths()
    involvement = propagation.nvlink_involvement()
    error_state = max(0.0, h["p_nvlink_terminal"] - h["p_nvlink_inter"])
    nvlink = _xid_counts(propagation).get(int(Xid.NVLINK), 0)
    incidents = len(involvement.incident_gpu_counts)
    four_plus_pct = (
        involvement.errors_in_4plus_gpu_incidents / involvement.total_errors * 100
        if involvement.total_errors else 0.0
    )
    metrics = (
        _metric("p_nvlink_self", float(h["p_nvlink_self"]),
                "fig6.p_nvlink_self", support=nvlink),
        _metric("p_nvlink_inter", float(h["p_nvlink_inter"]),
                "fig6.p_nvlink_inter", support=nvlink),
        _metric("p_nvlink_error_state", float(error_state),
                "fig6.p_nvlink_error_state", support=nvlink),
        _metric("single_gpu_pct",
                float(involvement.single_gpu_fraction * 100.0),
                "fig6.single_gpu_pct", unit="%", support=incidents),
        _metric("multi_gpu_pct",
                float(involvement.multi_gpu_fraction * 100.0),
                "fig6.multi_gpu_pct", unit="%", support=incidents),
        _metric("four_plus_gpu_pct", float(four_plus_pct),
                "fig6.four_plus_gpu_pct", unit="%", support=incidents),
        _metric("all8_errors", int(involvement.errors_in_all8_incidents),
                "fig6.all8_errors", scale=scale, support=incidents),
    )
    return ExperimentResult(
        experiment_id="fig6",
        paper_artifact="Figure 6",
        title="Figure 6 - NVLink error propagation (measured vs paper)",
        renderer="fig6",
        metrics=metrics,
    )


def figure7_result(propagation: PropagationAnalyzer) -> ExperimentResult:
    """DBE recovery tree (paper Figure 7)."""
    m = propagation.memory_recovery_paths()
    counts = _xid_counts(propagation)
    dbe = counts.get(int(Xid.DBE), 0)
    rrf = counts.get(int(Xid.RRF), 0)
    metrics = (
        _metric("p_dbe_to_rre", float(m["p_dbe_to_rre"]),
                "fig7.p_dbe_to_rre", support=dbe),
        _metric("p_dbe_to_rrf", float(m["p_dbe_to_rrf"]),
                "fig7.p_dbe_to_rrf", support=dbe),
        _metric("p_rrf_to_contained", float(m["p_rrf_to_contained"]),
                "fig7.p_rrf_to_contained", support=rrf),
        _metric("p_rrf_to_uncontained", float(m["p_rrf_to_uncontained"]),
                "fig7.p_rrf_to_uncontained", support=rrf),
        _metric("p_rrf_terminal", float(m["p_rrf_terminal"]),
                "fig7.p_rrf_terminal", support=rrf),
        _metric("dbe_alleviated_pct", float(m["dbe_alleviated"] * 100.0),
                "fig7.dbe_alleviated_pct", unit="%", support=dbe),
    )
    return ExperimentResult(
        experiment_id="fig7",
        paper_artifact="Figure 7",
        title="Figure 7 - intra-GPU uncorrectable memory error recovery "
              "(measured vs paper)",
        renderer="fig7",
        metrics=metrics,
    )


# ---------------------------------------------------------------------------
# Figure 9 + availability
# ---------------------------------------------------------------------------


def figure9_result(
    impact: JobImpactAnalyzer,
    availability: AvailabilityAnalyzer,
    scale: float = 1.0,
) -> ExperimentResult:
    histogram = impact.elapsed_histogram()
    histogram_rows = tuple(
        (
            float(histogram.edges_minutes[i]),
            float(histogram.edges_minutes[i + 1]),
            int(histogram.completed[i]),
            int(histogram.gpu_failed[i]),
        )
        for i in range(len(histogram.completed))
    )
    series = impact.errors_vs_duration()
    duration_rows = tuple(
        (float(mid_c), float(mean_c), float(mean_f))
        for (mid_c, mean_c), (_, mean_f) in zip(
            series["completed"], series["gpu_failed"]
        )
    )
    report = availability.report()
    dist = availability.unavailability_distribution()
    incidents = int(report.n_incidents)
    metrics = (
        _metric("lost_node_hours", float(impact.lost_node_hours()),
                "fig9.lost_node_hours", scale=scale, unit="node-hours"),
        _metric("n_incidents", incidents),
        _metric("mean_unavailability_hours", float(dist["mean_hours"]),
                "fig9.mean_unavailability_hours", unit="h", support=incidents),
        _metric("p50_unavailability_hours", float(dist["p50_hours"]), unit="h"),
        _metric("p95_unavailability_hours", float(dist["p95_hours"]), unit="h"),
        _metric("p99_unavailability_hours", float(dist["p99_hours"]), unit="h"),
        _metric("max_unavailability_hours", float(dist["max_hours"]), unit="h"),
        _metric("total_downtime_node_hours",
                float(report.total_downtime_node_hours),
                "fig9.total_downtime_node_hours", scale=scale,
                unit="node-hours"),
        _metric("mttf_hours", float(report.mttf_hours),
                "fig9.mttf_hours", unit="h"),
        _metric("mttr_hours", float(report.mttr_hours),
                "fig9.mttr_hours", unit="h", support=incidents),
        _metric("availability_pct", float(report.availability * 100.0),
                "fig9.availability_pct", unit="%"),
        _metric("downtime_minutes_per_day",
                float(report.downtime_minutes_per_day),
                "fig9.downtime_minutes_per_day", unit="min"),
    )
    tables = (
        ResultTable(
            title="Figure 9a - jobs vs elapsed time (completed / GPU-failed)",
            headers=("lo_minutes", "hi_minutes", "completed", "gpu_failed"),
            rows=histogram_rows,
        ),
        ResultTable(
            title="Figure 9b - mean GPU errors encountered vs job duration",
            headers=("mid_minutes", "completed_mean", "gpu_failed_mean"),
            rows=duration_rows,
        ),
    )
    return ExperimentResult(
        experiment_id="fig9",
        paper_artifact="Figure 9",
        title="Figure 9 - job impact, errors vs duration, node unavailability",
        renderer="fig9",
        metrics=metrics,
        tables=tables,
    )


# ---------------------------------------------------------------------------
# Section 5.4 / 5.5
# ---------------------------------------------------------------------------


def overprovision_result(
    results: Mapping[Tuple[float, float], float]
) -> ExperimentResult:
    anchors = {(40.0, 0.995): "20%", (5.0, 0.995): "5%"}
    rows = []
    anchored: Dict[str, float] = {}
    for (recovery, availability), fraction in sorted(results.items()):
        anchor = anchors.get((recovery, availability), "-")
        if anchor != "-":
            anchored[anchor] = float(fraction * 100.0)
        rows.append((
            float(recovery),
            float(availability * 100.0),
            float(fraction * 100.0),
            anchor,
        ))
    table = ResultTable(
        title="Section 5.4 - required overprovisioning (800-GPU, 1-month job)",
        headers=("Recovery (min)", "Availability %", "Overprovision %", "paper"),
        rows=tuple(rows),
    )
    metrics = []
    if "20%" in anchored:
        metrics.append(_metric("overprovision_40min_pct", anchored["20%"],
                               "sec5.4.overprovision_40min_pct", unit="%"))
    if "5%" in anchored:
        metrics.append(_metric("overprovision_5min_pct", anchored["5%"],
                               "sec5.4.overprovision_5min_pct", unit="%"))
    return ExperimentResult(
        experiment_id="sec5.4",
        paper_artifact="Section 5.4",
        title=table.title,
        renderer="overprovision",
        metrics=tuple(metrics),
        tables=(table,),
    )


def generations_result(comparison) -> ExperimentResult:
    """The Section-7 generational contrast as a table."""
    rows = tuple(
        (
            str(row.name),
            str(row.system),
            float(row.dbe_job_interruption_prob),
            bool(row.has_row_remapping),
            bool(row.has_error_containment),
            bool(row.has_gsp),
            int(row.retirement_budget),
            bool(row.measured),
        )
        for row in comparison.rows()
    )
    tables = (
        ResultTable(
            title="Generational resilience comparison "
                  "(prior-literature constants vs measured)",
            headers=("Generation", "System", "P(interrupt|DBE)", "Remap",
                     "Containment", "GSP", "Budget", "Measured"),
            rows=rows,
        ),
        ResultTable(
            title="New Ampere-era failure modes",
            headers=("mode",),
            rows=tuple((str(mode),) for mode in comparison.new_failure_modes()),
        ),
    )
    metrics = (
        _metric("n_generations", len(rows)),
        _metric("n_new_failure_modes", len(tables[1].rows)),
    )
    return ExperimentResult(
        experiment_id="sec7",
        paper_artifact="Section 7",
        title=tables[0].title,
        renderer="generations",
        metrics=metrics,
        tables=tables,
    )


def spatial_result(analyzer) -> ExperimentResult:
    """Section 4.2 (iii)'s concentration story, quantified."""
    counts = Counter(e.xid for e in analyzer.errors)
    rows = []
    for xid in (95, 31, 74, 119):
        offenders = analyzer.offenders(xid)
        rows.append((
            int(xid),
            float(analyzer.gini(xid)),
            float(analyzer.top_share(xid, 1)),
            float(analyzer.top_share(xid, 4)),
            float(analyzer.affected_gpu_fraction(xid) * 100.0),
            len(offenders),
        ))
    table = ResultTable(
        title="Spatial error concentration (Gini over the GPU population)",
        headers=("XID", "Gini", "Top-1 share", "Top-4 share",
                 "GPUs affected %", "Offenders (Poisson surprise)"),
        rows=tuple(rows),
    )
    uncontained = int(Xid.UNCONTAINED)
    metrics = (
        _metric("uncontained_top1_share",
                float(analyzer.top_share(uncontained, 1)),
                "sec4.2iii.uncontained_top1_share",
                support=counts.get(uncontained, 0)),
        _metric("n_gpus", int(analyzer.n_gpus)),
    )
    return ExperimentResult(
        experiment_id="sec4.2iii",
        paper_artifact="Section 4.2 (iii)",
        title=table.title,
        renderer="spatial",
        metrics=metrics,
        tables=(table,),
    )


def counterfactual_result(report: CounterfactualReport) -> ExperimentResult:
    metrics = (
        _metric("baseline_mtbe_node_hours",
                float(report.baseline_mtbe_node_hours),
                "sec5.5.baseline_mtbe_node_hours", unit="node-hours"),
        _metric("without_offenders_mtbe_node_hours",
                float(report.without_offenders_mtbe_node_hours),
                "sec5.5.without_offenders_mtbe_node_hours", unit="node-hours"),
        _metric("offender_improvement", float(report.offender_improvement),
                "sec5.5.offender_improvement", unit="x"),
        _metric("without_offenders_and_hw_mtbe_node_hours",
                float(report.without_offenders_and_hw_mtbe_node_hours),
                "sec5.5.without_offenders_and_hw_mtbe_node_hours",
                unit="node-hours"),
        _metric("hardware_additional_improvement_pct",
                float((report.hardware_additional_improvement - 1) * 100.0),
                "sec5.5.hardware_additional_improvement_pct", unit="%"),
        _metric("baseline_availability_pct",
                float(report.baseline_availability * 100.0),
                "sec5.5.baseline_availability_pct", unit="%"),
        _metric("improved_availability_pct",
                float(report.improved_availability * 100.0),
                "sec5.5.improved_availability_pct", unit="%"),
        _metric("removed_gpus", len(report.removed_gpus)),
    )
    return ExperimentResult(
        experiment_id="sec5.5",
        paper_artifact="Section 5.5",
        title="Section 5.5 - counterfactual resilience improvements",
        renderer="counterfactual",
        metrics=metrics,
    )
