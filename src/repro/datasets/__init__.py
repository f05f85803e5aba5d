"""One-call synthetic-Delta dataset builders."""

from repro.datasets.delta import (
    DeltaDataset,
    DeltaDatasetConfig,
    synthesize_delta,
    synthesize_h100,
)
from repro.datasets.incidents import (
    gsp_incident,
    nvlink_multinode_incident,
    pmu_mmu_incident,
)

__all__ = [
    "DeltaDataset",
    "DeltaDatasetConfig",
    "synthesize_delta",
    "synthesize_h100",
    "gsp_incident",
    "nvlink_multinode_incident",
    "pmu_mmu_incident",
]
