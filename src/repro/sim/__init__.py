"""Discrete-event what-if engine: failure-aware training simulation.

The substrate characterizes the failure process (``repro.faults``) and the
pipeline measures it (``repro.core``); this subpackage asks the *forward*
question the paper's Section 5 raises: how much goodput does a long
512-GPU training job lose to the measured failure process, and which
recovery policy buys it back?

* :mod:`repro.sim.events` — the event-queue core (failure, checkpoint
  write, restore, drain-end, spare-swap, job-complete events).
* :mod:`repro.sim.failures` — the calibrated failure process: root-event
  rates solved from a :class:`~repro.faults.calibration.CalibrationProfile`,
  chains replayed through the same Markov kernel the injector uses, and an
  explicit defective-part (offender) lottery.
* :mod:`repro.sim.policies` — pluggable recovery policies: restart from
  checkpoint (Young/Daly or fixed interval), node drain + hot-spare
  substitution, elastic shrink/regrow, and the no-checkpoint baseline.
* :mod:`repro.sim.engine` — the simulator that places a training job on a
  Delta-shaped inventory and runs it to completion under the event model.
* :mod:`repro.sim.metrics` — per-run outcomes (goodput, ETTR, wasted
  GPU-hours, overhead split) and sweep aggregation with confidence bounds.
* :mod:`repro.sim.sweep` — the parallel Monte-Carlo sweep runner: seeded
  per-replica streams, result caching keyed by config hash, resumable
  partial sweeps, and worker-count-independent aggregates.
* :mod:`repro.sim.scenarios` — named presets (A100 vs H100 fleets, the
  counterfactual "no Xid-79" world, the burned-in world).
"""

from repro.sim.engine import (
    SimulationConfig,
    TrainingJobConfig,
    WhatIfEngine,
    simulate_training_run,
)
from repro.sim.failures import AllocationFailureState, FailureDraw, FailureModel
from repro.sim.metrics import (
    AGGREGATE_FIELDS,
    RunMetrics,
    aggregate_metrics,
    mean_ci95,
)
from repro.sim.policies import (
    CheckpointRestart,
    ElasticScale,
    HotSpare,
    NoCheckpoint,
    RecoveryPolicy,
    parse_policy,
)
from repro.sim.scenarios import SCENARIOS, Scenario, build_scenario, list_scenarios
from repro.sim.sweep import SweepConfig, SweepResult, run_sweep

__all__ = [
    "SimulationConfig",
    "TrainingJobConfig",
    "WhatIfEngine",
    "simulate_training_run",
    "AllocationFailureState",
    "FailureDraw",
    "FailureModel",
    "AGGREGATE_FIELDS",
    "RunMetrics",
    "aggregate_metrics",
    "mean_ci95",
    "CheckpointRestart",
    "ElasticScale",
    "HotSpare",
    "NoCheckpoint",
    "RecoveryPolicy",
    "parse_policy",
    "SCENARIOS",
    "Scenario",
    "build_scenario",
    "list_scenarios",
    "SweepConfig",
    "SweepResult",
    "run_sweep",
]
