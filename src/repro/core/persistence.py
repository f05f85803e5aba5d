"""Persistence-distribution analysis (paper Section 4.3).

Error persistence — the duration of an error's duplicate-line burst — is the
paper's proxy for recovery time.  This analyzer reproduces Section 4.3's
numbers: total useful GPU computation lost (sum of persistence across all
GPUs), the share of that loss carried by the tail beyond each code's P95,
and identification of long-persisting errors for monitoring.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

from repro.core.coalesce import CoalescedError


@dataclass(frozen=True)
class TailAnalysis:
    """Loss accounting split at the per-XID P95 persistence threshold."""

    total_lost_gpu_hours: float
    tail_lost_gpu_hours: float

    @property
    def tail_share(self) -> float:
        if self.total_lost_gpu_hours <= 0:
            return 0.0
        return self.tail_lost_gpu_hours / self.total_lost_gpu_hours


class PersistenceAnalyzer:
    """Persistence distributions and lost-GPU-hours accounting."""

    def __init__(self, errors: Sequence[CoalescedError]) -> None:
        self.errors = list(errors)
        self._by_xid: Dict[int, List[float]] = {}
        for error in self.errors:
            self._by_xid.setdefault(error.xid, []).append(error.persistence)

    # ------------------------------------------------------------------

    def tail_analysis(self) -> TailAnalysis:
        """Share of lost GPU-hours from errors persisting beyond their
        code's P95 (the paper reports 91%)."""
        total = 0.0
        tail = 0.0
        for xid, values in self._by_xid.items():
            arr = np.asarray(values)
            if arr.size == 0:
                continue
            p95 = np.percentile(arr, 95)
            total += float(arr.sum())
            tail += float(arr[arr > p95].sum())
        return TailAnalysis(
            total_lost_gpu_hours=total / 3600.0,
            tail_lost_gpu_hours=tail / 3600.0,
        )

    # ------------------------------------------------------------------

    def longest(self, k: int = 10) -> List[CoalescedError]:
        """The k longest-persisting errors (the SRE monitoring watchlist)."""
        return sorted(self.errors, key=lambda e: e.persistence, reverse=True)[:k]
