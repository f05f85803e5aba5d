"""Spatial error-concentration analysis.

Section 4.2 (iii)'s operational insight — most memory-class errors come
from a handful of defective GPUs, so burn-in testing and replacement pay
off — needs a quantitative footing.  This module provides it:

* :func:`gini_coefficient` — inequality of the per-GPU error distribution
  (0: uniform across GPUs; ->1: one GPU holds everything);
* :func:`lorenz_points` — the top-k concentration curve ("the top GPU holds
  99% of uncontained errors");
* :class:`SpatialAnalyzer` — per-code concentration, offender detection
  with binomial surprise (is a GPU's count explainable by chance?), and
  node-level clustering.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.core.coalesce import CoalescedError

GpuKey = Tuple[str, str]

#: Poisson-tail surprise (-log10 p) above which a GPU is an offender.
SURPRISE_THRESHOLD = 6.0


def gini_coefficient(counts: Sequence[float], population: int | None = None) -> float:
    """Gini inequality of counts, optionally padded with zero-count units.

    ``population`` is the total number of GPUs (most of which saw zero
    errors); omitting it measures inequality among affected GPUs only.
    """
    values = [float(c) for c in counts]
    if population is not None:
        if population < len(values):
            raise ValueError("population smaller than the number of nonzero units")
        values = values + [0.0] * (population - len(values))
    arr = np.sort(np.asarray(values))
    n = arr.size
    total = arr.sum()
    if n == 0 or total == 0:
        return 0.0
    index = np.arange(1, n + 1)
    return float((2.0 * np.sum(index * arr) / (n * total)) - (n + 1.0) / n)


def lorenz_points(
    counts: Sequence[float], ks: Sequence[int] = (1, 2, 4, 8)
) -> Dict[int, float]:
    """Share of all errors held by the top-k GPUs, for each k."""
    arr = np.sort(np.asarray([float(c) for c in counts]))[::-1]
    total = arr.sum()
    if total == 0:
        return {k: 0.0 for k in ks}
    return {k: float(arr[: min(k, arr.size)].sum() / total) for k in ks}


@dataclass(frozen=True)
class Offender:
    gpu: GpuKey
    count: int
    share: float
    #: -log10 of the Poisson tail probability of seeing >= count errors on
    #: one GPU if errors landed uniformly; > 6 means "not chance".
    surprise: float


class SpatialAnalyzer:
    """Per-GPU and per-node concentration of an error stream."""

    def __init__(self, errors: Sequence[CoalescedError], n_gpus: int) -> None:
        if n_gpus <= 0:
            raise ValueError("n_gpus must be positive")
        self.n_gpus = n_gpus
        self.errors = list(errors)
        self._per_gpu: Dict[int, Dict[GpuKey, int]] = {}
        for error in self.errors:
            self._per_gpu.setdefault(error.xid, {}).setdefault(error.gpu_key, 0)
            self._per_gpu[error.xid][error.gpu_key] += 1

    # ------------------------------------------------------------------

    def gini(self, xid: int) -> float:
        counts = list(self._per_gpu.get(int(xid), {}).values())
        return gini_coefficient(counts, population=self.n_gpus)

    def top_share(self, xid: int, k: int = 1) -> float:
        counts = list(self._per_gpu.get(int(xid), {}).values())
        return lorenz_points(counts, ks=(k,)).get(k, 0.0)

    def affected_gpu_fraction(self, xid: int) -> float:
        """Fraction of the population that ever saw this code."""
        return len(self._per_gpu.get(int(xid), {})) / self.n_gpus

    # ------------------------------------------------------------------

    def offenders(self, xid: int) -> List[Offender]:
        """GPUs whose counts are statistically inconsistent with chance.

        Under uniform placement each GPU's count is ~Poisson(total/n_gpus);
        the surprise score is -log10 of that tail probability (Chernoff
        bound for numerical robustness at extreme counts).  An offender
        scores at least :data:`SURPRISE_THRESHOLD` with three or more
        errors.
        """
        per_gpu = self._per_gpu.get(int(xid), {})
        total = sum(per_gpu.values())
        if total == 0:
            return []
        rate = total / self.n_gpus
        out: List[Offender] = []
        for gpu, count in per_gpu.items():
            surprise = _poisson_tail_surprise(count, rate)
            if surprise >= SURPRISE_THRESHOLD and count >= 3:
                out.append(
                    Offender(gpu=gpu, count=count, share=count / total,
                             surprise=surprise)
                )
        out.sort(key=lambda o: o.count, reverse=True)
        return out


def _poisson_tail_surprise(count: int, rate: float) -> float:
    """-log10 P(X >= count) for X ~ Poisson(rate), via the Chernoff bound.

    ``P(X >= k) <= exp(-rate) (e*rate/k)^k`` for k > rate; exact enough for
    a detection score and immune to overflow at the offender's 38k counts.
    """
    if count <= rate:
        return 0.0
    if rate <= 0:
        return float("inf")
    log_p = -rate + count * (1.0 + math.log(rate) - math.log(count))
    return max(0.0, -log_p / math.log(10.0))
