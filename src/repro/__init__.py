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
    stats = study.error_statistics()
    print(stats.overall_mtbe_node_hours())

The package re-exports only the four entry points the examples start from;
every other name is imported from the module that defines it.
"""

from repro.core import DeltaStudy, H100Analyzer
from repro.datasets import synthesize_delta, synthesize_h100

__version__ = "2.0.0"

__all__ = [
    "DeltaStudy",
    "H100Analyzer",
    "synthesize_delta",
    "synthesize_h100",
    "__version__",
]
