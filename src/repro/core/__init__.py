"""The paper's contribution: the GPU resilience characterization pipeline.

Stage I   — :mod:`repro.core.parsing`: regex extraction of XID records from
            raw syslog text.
Stage II  — :mod:`repro.core.coalesce`: Algorithm-1 error coalescing and
            persistence measurement.
Stage III — statistics (:mod:`repro.core.mtbe`, :mod:`repro.core.persistence`),
            propagation graphs (:mod:`repro.core.propagation`), job impact
            (:mod:`repro.core.jobimpact`), availability
            (:mod:`repro.core.availability`), scale projection
            (:mod:`repro.core.overprovision`), counterfactuals
            (:mod:`repro.core.counterfactual`), and the H100 early view
            (:mod:`repro.core.h100`).

:mod:`repro.core.pipeline` chains the stages end-to-end;
:mod:`repro.core.report` renders paper-style tables and figures.

The package re-exports only the names that other code and the docs import
from it; every other name is imported from the module that defines it.
"""

from repro.core.coalesce import coalesce_errors
from repro.core.comparison import GenerationComparison
from repro.core.h100 import H100Analyzer
from repro.core.mtbe import ErrorStatistics
from repro.core.overprovision import (
    OverprovisionConfig,
    OverprovisionSimulator,
    required_overprovision_analytic,
)
from repro.core.pipeline import DeltaStudy
from repro.core.prediction import PersistencePredictor, extract_runs
from repro.core.propagation import PropagationAnalyzer
from repro.core.spatial import SpatialAnalyzer
from repro.core.streaming import StreamingCoalescer

__all__ = [
    "coalesce_errors",
    "GenerationComparison",
    "H100Analyzer",
    "ErrorStatistics",
    "OverprovisionConfig",
    "OverprovisionSimulator",
    "required_overprovision_analytic",
    "DeltaStudy",
    "PersistencePredictor",
    "extract_runs",
    "PropagationAnalyzer",
    "SpatialAnalyzer",
    "StreamingCoalescer",
]
