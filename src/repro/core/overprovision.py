"""Overprovisioning projection for large long-running jobs (paper Sec. 5.4).

The paper built a discrete-event "emulation" of a gang-scheduled training
job that needs all ``N`` nodes to progress: nodes fail, each failure costs a
checkpoint-recovery stall, and the failed node is unavailable while it
drains/reboots; spare nodes absorb failures so the job is not blocked.  The
published anchor points are:

* 800 GPUs, 1-month job, 1% single-GPU failure chance per hour,
  40-minute recovery  -> **20%** overprovisioning (160 spares);
* recovery reduced to 5 minutes -> **5%**;
* availability improved from 99.5% to 99.9% -> ~**4x** less overprovisioning.

The paper does not specify its node-unavailability model, so we use an
explicit one (documented in DESIGN.md): a failed node is held out of the
pool for an exponentially-distributed time whose mean is *affine in the
recovery time*,

    E[T_hold] = HOLD_BASE_HOURS + HOLD_PER_RECOVERY_HOUR * recovery_hours,

capturing that slower per-failure recovery pipelines (checkpoint restore,
validation, reintegration) hold nodes longer.  The two constants are
calibrated once from the paper's two anchor points and then *everything
else* — the sweep shape, the availability projection — follows from the
model.  Required overprovisioning is the smallest spare fraction that keeps
the job's blocked-time fraction under a threshold.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, replace
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.util.rng import spawn_rng
from repro.util.validation import check_fraction, check_positive, check_probability

#: Calibrated from the paper's anchors (see module docstring / DESIGN.md):
#: solving  q997(8h * (a + b*40min)) = 160  and  q997(8h * (a + b*5min)) = 40.
HOLD_BASE_HOURS = 1.25
HOLD_PER_RECOVERY_HOUR = 21.8

#: The availability level the base failure rate corresponds to (paper: each
#: GPU node has two nines; measured 99.5%).
BASE_AVAILABILITY = 0.995

#: A job counts as blocked when fewer than n_nodes are operational; the
#: required overprovision keeps its blocked-time fraction at most this.
MAX_BLOCKED_FRACTION = 0.005


def _hold_mean_hours(recovery_minutes: float) -> float:
    return HOLD_BASE_HOURS + HOLD_PER_RECOVERY_HOUR * recovery_minutes / 60.0


def _rate_scale_for_availability(availability: float) -> float:
    """Failure-rate multiplier for a target availability vs the base.

    Availability = MTTF/(MTTF+MTTR) with MTTR fixed, so the failure rate
    scales with (1-A)/A relative to the base level.
    """
    base_odds = (1.0 - BASE_AVAILABILITY) / BASE_AVAILABILITY
    odds = (1.0 - availability) / availability
    return odds / base_odds


@dataclass(frozen=True)
class OverprovisionConfig:
    """Scenario parameters (defaults = the paper's headline scenario)."""

    n_nodes: int = 800
    duration_days: float = 30.0
    #: Per-GPU(-node) failure probability per hour at the base availability.
    failure_prob_per_hour: float = 0.01
    recovery_minutes: float = 40.0
    availability: float = BASE_AVAILABILITY
    n_trials: int = 5
    seed: int = 7

    def __post_init__(self) -> None:
        check_positive("n_nodes", self.n_nodes)
        check_positive("duration_days", self.duration_days)
        check_probability("failure_prob_per_hour", self.failure_prob_per_hour)
        check_positive("recovery_minutes", self.recovery_minutes)
        check_fraction("availability", self.availability, allow_zero=False)
        check_positive("n_trials", self.n_trials)

    @property
    def effective_failure_rate_per_hour(self) -> float:
        """Cluster-wide failure arrival rate (failures/hour)."""
        return (
            self.n_nodes
            * self.failure_prob_per_hour
            * _rate_scale_for_availability(self.availability)
        )

    @property
    def hold_mean_hours(self) -> float:
        return _hold_mean_hours(self.recovery_minutes)


@dataclass(frozen=True)
class TrialResult:
    blocked_fraction: float
    stall_fraction: float
    peak_down: int
    n_failures: int


#: Standard-normal quantile at 99.5% confidence.
_Z_995 = 2.576


def required_overprovision_analytic(config: OverprovisionConfig) -> float:
    """Closed-form estimate: spares = Poisson quantile of concurrent holds.

    Concurrently-held nodes form an M/G/inf queue with offered load
    ``m = rate * E[T_hold]``; the required spare count is the Poisson(m)
    quantile at 99.5% confidence (normal approximation).
    """
    m = config.effective_failure_rate_per_hour * config.hold_mean_hours
    if m <= 0:
        return 0.0
    spares = m + _Z_995 * math.sqrt(m)
    return spares / config.n_nodes


def _failures(
    rng: np.random.Generator, rate: float, hold_mean: float, horizon: float
) -> Tuple[np.ndarray, np.ndarray]:
    """Arrival and repair-completion times of the failures before ``horizon``.

    The variates are those of a loop that alternates the gap to the next
    failure, ``rng.exponential(1 / rate)``, with that failure's hold,
    ``rng.exponential(hold_mean)``, until a gap crosses the horizon:
    ``exponential(s)`` is ``s * standard_exponential()`` draw for draw, so
    even draws scale to gaps and odd ones to holds.  Draws come in chunks
    sized to the expected failure count; the rng is private to the trial, so
    over-drawing is harmless.  ``cumsum`` adds left to right, so arrival
    times equal the loop's running ``t += gap`` bit for bit.
    """
    if rate <= 0:
        return np.zeros(0), np.zeros(0)
    gap_mean = 1.0 / rate
    expected = rate * horizon
    chunk = int(expected + 4.0 * math.sqrt(expected)) + 8
    arrivals: List[np.ndarray] = []
    holds: List[np.ndarray] = []
    t = 0.0
    while True:
        draws = rng.standard_exponential(2 * chunk)
        times = np.cumsum(np.concatenate(([t], draws[0::2] * gap_mean)))[1:]
        n = int(np.searchsorted(times, horizon, side="left"))
        arrivals.append(times[:n])
        holds.append(draws[1::2][:n])
        if n < chunk:
            break
        t = float(times[-1])
    times = np.concatenate(arrivals)
    return times, times + np.concatenate(holds) * hold_mean


class OverprovisionSimulator:
    """Discrete-event simulation of the spare-pool scenario."""

    def __init__(self, config: OverprovisionConfig | None = None) -> None:
        self.config = config or OverprovisionConfig()

    # ------------------------------------------------------------------

    def run_trial(self, spares: int, trial: int = 0) -> TrialResult:
        """One simulated job execution with a fixed spare count.

        Failures arrive as a Poisson process; each holds its node out of the
        pool until its repair completes.  Whenever more than ``spares`` nodes
        are down the job is blocked until enough repairs complete, and every
        failure stalls the job for the recovery time.  The trial is computed
        in batch: arrivals, holds and down counts are whole arrays, and only
        the blocked arrivals are walked one by one.
        """
        config = self.config
        rng = spawn_rng(config.seed, "overprovision", str(trial), str(spares))
        horizon = config.duration_days * 24.0
        arrivals, completions = _failures(
            rng, config.effective_failure_rate_per_hour, config.hold_mean_hours, horizon
        )
        n_failures = len(arrivals)
        if n_failures == 0:
            return TrialResult(0.0, 0.0, 0, 0)

        # Failure j is down from its own arrival until the first arrival at
        # or after its repair completes (always at least its own arrival).
        index = np.arange(1, n_failures + 1)
        released = np.maximum(np.searchsorted(arrivals, completions, side="left"), index)
        n_down = index - np.cumsum(np.bincount(released, minlength=n_failures + 1)[:-1])
        # The job stalls for the recovery time on every failure (overlapping
        # stalls are not merged: they are short against the calibrated
        # interarrival times, and the paper's metric is capacity, not
        # goodput).  Accumulated one by one, like a running total.
        stalls = np.full(n_failures, config.recovery_minutes / 60.0)
        stall_time = float(np.add.accumulate(stalls)[-1])

        # At a blocked arrival the job waits for the (spares+1)-th latest
        # repair among the nodes down.  Every repair already completed is
        # earlier than every one still pending, so this is also the
        # (spares+1)-th latest completion among all failures so far: the
        # root of a min-heap holding the spares+1 latest.  Only a failure
        # still down at some blocked arrival can be that root, so only
        # those are pushed.
        blocked_time = 0.0
        blocked_until = 0.0  # high-water mark so overlapping blocks don't double-count
        is_blocked = n_down > spares
        blocked = np.flatnonzero(is_blocked)
        if blocked.size:
            # Failure j is needed if an arrival in [j, released[j]) blocks.
            blocked_before = np.concatenate(([0], np.cumsum(is_blocked)))
            needed = np.flatnonzero(blocked_before[released] > blocked_before[:-1])
            repairs = completions[needed].tolist()
            latest = repairs[: spares + 1]
            heapq.heapify(latest)
            pushed = spares + 1
            for t, stop in zip(
                arrivals[blocked].tolist(),
                np.searchsorted(needed, blocked, side="right").tolist(),
            ):
                for repair in repairs[pushed:stop]:
                    heapq.heappushpop(latest, repair)
                pushed = stop
                deficit_until = min(latest[0], horizon)
                start = max(t, blocked_until)
                if deficit_until > start:
                    blocked_time += deficit_until - start
                    blocked_until = deficit_until
        return TrialResult(
            blocked_fraction=min(1.0, blocked_time / horizon),
            stall_fraction=min(1.0, stall_time / horizon),
            peak_down=int(n_down.max()),
            n_failures=n_failures,
        )

    def blocked_fraction(self, spares: int) -> float:
        """Mean blocked fraction over the configured trials."""
        results = [self.run_trial(spares, trial) for trial in range(self.config.n_trials)]
        return float(np.mean([r.blocked_fraction for r in results]))

    # ------------------------------------------------------------------

    def required_overprovision(self) -> float:
        """Smallest spare fraction keeping blocked time under the threshold.

        Binary search over the spare count, seeded by the analytic estimate.
        """
        config = self.config
        guess = int(math.ceil(required_overprovision_analytic(config) * config.n_nodes))
        hi = max(4, guess * 2)
        while self.blocked_fraction(hi) > MAX_BLOCKED_FRACTION:
            hi *= 2
            if hi > config.n_nodes * 2:
                break
        lo = 0
        while lo < hi:
            mid = (lo + hi) // 2
            if self.blocked_fraction(mid) <= MAX_BLOCKED_FRACTION:
                hi = mid
            else:
                lo = mid + 1
        return hi / config.n_nodes

    def sweep(
        self,
        recovery_minutes: Sequence[float] = (5.0, 10.0, 20.0, 40.0),
        availabilities: Sequence[float] = (BASE_AVAILABILITY,),
    ) -> Dict[Tuple[float, float], float]:
        """Required overprovision over a (recovery, availability) grid."""
        out: Dict[Tuple[float, float], float] = {}
        for availability in availabilities:
            for recovery in recovery_minutes:
                config = replace(
                    self.config, recovery_minutes=recovery, availability=availability
                )
                out[(recovery, availability)] = OverprovisionSimulator(
                    config
                ).required_overprovision()
        return out
