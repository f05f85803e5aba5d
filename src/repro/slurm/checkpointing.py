"""Checkpoint/restart cost model (paper Section 5.1/5.3).

The paper notes that while checkpointing lets jobs survive GPU errors,
"checkpointing routines have high overhead up to 40% including management,
storage, and restore".  This analytic model quantifies that trade-off for a
job exposed to the measured failure process:

* with interval ``tau``, steady-state overhead is ``C/tau`` (write cost)
  plus expected rework of ``tau/2`` and restore ``R`` per failure;
* :func:`optimal_interval` is the Young/Daly first-order optimum
  ``sqrt(2 C M)`` for MTBF ``M``.

The what-if engine (:mod:`repro.sim`) simulates runs under these intervals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.util.validation import check_positive


@dataclass(frozen=True)
class CheckpointConfig:
    """Costs in hours."""

    checkpoint_cost_hours: float = 0.1  # write + management
    restore_cost_hours: float = 0.25
    mtbf_hours: float = 67.0  # the measured per-node MTBE

    def __post_init__(self) -> None:
        check_positive("checkpoint_cost_hours", self.checkpoint_cost_hours)
        check_positive("restore_cost_hours", self.restore_cost_hours)
        check_positive("mtbf_hours", self.mtbf_hours)


def optimal_interval(config: CheckpointConfig) -> float:
    """Young's approximation of the optimal checkpoint interval (hours).

    Clamped to the MTBF: ``sqrt(2 C M)`` exceeds ``M`` once the checkpoint
    cost passes half the mean failure gap (the first-order expansion is
    outside its validity range there), and an interval longer than the mean
    gap would mean most runs never reach their first checkpoint.  Degenerate
    configs (checkpoint cost at or above the MTBF) therefore checkpoint
    once per mean failure gap instead of effectively never.
    """
    tau = math.sqrt(2.0 * config.checkpoint_cost_hours * config.mtbf_hours)
    return min(tau, config.mtbf_hours)


def expected_overhead(config: CheckpointConfig, interval_hours: float) -> float:
    """Expected fractional runtime overhead at a given interval.

    Overhead = checkpoint writes (C/tau) + failure rework ((tau/2 + R)/M).
    The paper's "up to 40%" regime corresponds to aggressive intervals or
    short MTBFs.
    """
    check_positive("interval_hours", interval_hours)
    write = config.checkpoint_cost_hours / interval_hours
    rework = (interval_hours / 2.0 + config.restore_cost_hours) / config.mtbf_hours
    return write + rework
