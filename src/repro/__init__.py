"""repro: GPU resilience characterization toolkit.

A full reproduction of *"Story of Two GPUs: Characterizing the Resilience of
Hopper H100 and Ampere A100 GPUs"* (SC 2025; arXiv title *"Characterizing
GPU Resilience and Impact on AI/HPC Systems"*): a calibrated synthetic Delta
substrate (cluster, faults, syslog, Slurm) plus the paper's analysis
pipeline (extraction, Algorithm-1 coalescing, MTBE/persistence statistics,
propagation graphs, job impact, availability, overprovisioning projection,
counterfactuals).

Quickstart::

    from repro import synthesize_delta, DeltaStudy

    dataset = synthesize_delta(scale=0.05, seed=7)
    study = DeltaStudy.from_dataset(dataset)
    report = study.run()
    print(report.statistics.overall_mtbe_node_hours())
"""

from repro.cluster import ClusterInventory, DeltaShape, build_delta_cluster
from repro.core import (
    AvailabilityAnalyzer,
    CoalesceConfig,
    CoalescedError,
    CounterfactualAnalyzer,
    DeltaStudy,
    ErrorStatistics,
    H100Analyzer,
    JobImpactAnalyzer,
    OverprovisionConfig,
    OverprovisionSimulator,
    PersistenceAnalyzer,
    PropagationAnalyzer,
    StudyReport,
    coalesce_errors,
    parse_syslog,
    required_overprovision_analytic,
)
from repro.datasets import (
    DeltaDataset,
    DeltaDatasetConfig,
    synthesize_delta,
    synthesize_h100,
)
from repro.faults import (
    AMPERE_CALIBRATION,
    DELTA_CALIBRATION,
    H100_CALIBRATION,
    FaultInjector,
    InjectorConfig,
    Xid,
)
from repro.results import (
    ExperimentResult,
    Metric,
    PaperExpectation,
    ResultTable,
    RunManifest,
    Tolerance,
    VerificationReport,
    verify_result,
    verify_results,
)
from repro.slurm import SlurmDatabase

__version__ = "2.0.0"

__all__ = [
    "ClusterInventory",
    "DeltaShape",
    "build_delta_cluster",
    "AvailabilityAnalyzer",
    "CoalesceConfig",
    "CoalescedError",
    "CounterfactualAnalyzer",
    "DeltaStudy",
    "ErrorStatistics",
    "H100Analyzer",
    "JobImpactAnalyzer",
    "OverprovisionConfig",
    "OverprovisionSimulator",
    "PersistenceAnalyzer",
    "PropagationAnalyzer",
    "StudyReport",
    "coalesce_errors",
    "parse_syslog",
    "required_overprovision_analytic",
    "DeltaDataset",
    "DeltaDatasetConfig",
    "synthesize_delta",
    "synthesize_h100",
    "AMPERE_CALIBRATION",
    "DELTA_CALIBRATION",
    "H100_CALIBRATION",
    "FaultInjector",
    "InjectorConfig",
    "Xid",
    "ExperimentResult",
    "Metric",
    "PaperExpectation",
    "ResultTable",
    "RunManifest",
    "Tolerance",
    "VerificationReport",
    "verify_result",
    "verify_results",
    "SlurmDatabase",
    "__version__",
]
