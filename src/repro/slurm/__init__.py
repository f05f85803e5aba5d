"""Slurm substrate: workload generation, scheduling, accounting, coupling.

Mirrors what the paper used from Delta's Slurm Workload Manager: a job
accounting database (start/end, nodes, GPUs, exit status) that the job-impact
analysis joins against GPU error timestamps.  The workload generator is
shaped by the paper's Table 3 (job-size mix, duration percentiles, ML share);
the failure-coupling stage applies per-XID job-failure models so Table 2 is
reproducible from the resulting records.
"""

from repro.slurm.job import ExitCode, JobRecord, JobSpec, JobState, JobTable
from repro.slurm.workload import WorkloadConfig, WorkloadModel, SIZE_BUCKETS
from repro.slurm.scheduler import GpuScheduler, Schedule, OccupancyIndex
from repro.slurm.accounting import NodeEvent, SlurmDatabase, SlurmFileError
from repro.slurm.checkpointing import (
    CheckpointConfig,
    expected_overhead,
    optimal_interval,
)
from repro.slurm.failures import FailureCoupler, CouplingResult

__all__ = [
    "ExitCode",
    "JobRecord",
    "JobSpec",
    "JobState",
    "JobTable",
    "WorkloadConfig",
    "WorkloadModel",
    "SIZE_BUCKETS",
    "GpuScheduler",
    "Schedule",
    "OccupancyIndex",
    "NodeEvent",
    "SlurmDatabase",
    "SlurmFileError",
    "FailureCoupler",
    "CouplingResult",
    "CheckpointConfig",
    "expected_overhead",
    "optimal_interval",
]
