"""Small statistics helpers shared by the fault models and the analyzers.

The paper reports persistence distributions by mean / P50 / P95, and the
generative side of this reproduction needs to *invert* such summaries into
samplable distributions.  ``lognormal_from_mean_p50`` performs that inversion
for the log-normal family, which fits the heavy-tailed, strictly-positive
durations seen in GPU error persistence data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np


@dataclass(frozen=True)
class DurationSummary:
    """Mean / median / tail summary of a duration sample, in seconds."""

    count: int
    mean: float
    p50: float
    p95: float
    total: float


def summarize_durations(values: Sequence[float]) -> DurationSummary:
    """Summarize a sample of durations the way Table 1 reports persistence."""
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        return DurationSummary(count=0, mean=0.0, p50=0.0, p95=0.0, total=0.0)
    return DurationSummary(
        count=int(arr.size),
        mean=float(arr.mean()),
        p50=float(np.percentile(arr, 50)),
        p95=float(np.percentile(arr, 95)),
        total=float(arr.sum()),
    )


@dataclass(frozen=True)
class LognormalParams:
    """Parameters ``(mu, sigma)`` of ``lognormal`` in log-space."""

    mu: float
    sigma: float

    def sample(self, rng: np.random.Generator, size: int | None = None):
        return rng.lognormal(mean=self.mu, sigma=self.sigma, size=size)

    @property
    def mean(self) -> float:
        return math.exp(self.mu + self.sigma**2 / 2.0)

    @property
    def median(self) -> float:
        return math.exp(self.mu)


def lognormal_from_mean_p50(mean: float, p50: float) -> LognormalParams:
    """Invert a (mean, median) pair into log-normal parameters.

    For a log-normal, ``median = exp(mu)`` and ``mean = exp(mu + sigma^2/2)``;
    hence ``sigma = sqrt(2 ln(mean/median))``.  When the reported mean is at
    or below the median (possible after rounding in the paper's tables) we
    fall back to a narrow distribution centred on the median.
    """
    if mean <= 0 or p50 <= 0:
        raise ValueError(f"mean and p50 must be positive, got mean={mean}, p50={p50}")
    mu = math.log(p50)
    ratio = mean / p50
    if ratio <= 1.0:
        return LognormalParams(mu=mu, sigma=0.05)
    sigma = math.sqrt(2.0 * math.log(ratio))
    return LognormalParams(mu=mu, sigma=sigma)

