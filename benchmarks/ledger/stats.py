"""Summaries and verdicts over repeated measurements.

Quartiles are Python's ``statistics.quantiles(values, n=4)`` (exclusive
method), the same rule the noise check and ``compare`` apply.
"""

from __future__ import annotations

import math
import statistics
from typing import List, Optional, Sequence, Tuple

#: A percentile is reported only when at least this many samples lie
#: strictly above it; below that the tail estimate is one or two outliers.
MIN_BEYOND = 10
PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3); a single sample is its own quartiles."""
    if len(values) < 2:
        value = float(values[0])
        return value, value, value
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values: Sequence[float]) -> float:
    """Inter-quartile range as a share of the median."""
    q1, median, q3 = quartiles(values)
    if median == 0:
        return 0.0 if q3 == q1 else math.inf
    return (q3 - q1) / abs(median)


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail_percentile(values: Sequence[float]) -> Optional[Tuple[float, float]]:
    """The highest of :data:`PERCENTILES` with :data:`MIN_BEYOND` samples
    beyond it, as ``(pct, value)``; ``None`` when even the median lacks them."""
    for pct in PERCENTILES:
        value = percentile(values, pct)
        if sum(1 for v in values if v > value) >= MIN_BEYOND:
            return pct, value
    return None


def summarize(values: Sequence[float]) -> dict:
    q1, median, q3 = quartiles(values)
    summary = {
        "n": len(values),
        "median": median,
        "q1": q1,
        "q3": q3,
        "min": min(values),
        "max": max(values),
        "spread": spread(values),
    }
    tail = tail_percentile(values)
    if tail is not None:
        summary[f"p{tail[0]:g}"] = tail[1]
    return summary


def _worse_by(a: float, b: float, better: str) -> float:
    """How much worse ``b`` is than ``a``, as a share of ``a`` (negative = better)."""
    if a == 0:
        if b == a:
            return 0.0
        return math.inf if _beats(a, b, better) else -math.inf
    change = (b - a) / abs(a)
    return change if better == "lower" else -change


def _beats(b: float, a: float, better: str) -> bool:
    return b < a if better == "lower" else b > a


def verdict(a: Sequence[float], b: Sequence[float], bound: float, better: str) -> str:
    """``better``/``worse``/``within bound``/``unresolved`` for B against A.

    A pair whose spread (either side's) exceeds its bound is unresolved,
    unless every B run beats every A run.
    """
    every_b_beats = all(_beats(y, x, better) for x in a for y in b)
    if max(spread(a), spread(b)) > bound:
        return "better" if every_b_beats else "unresolved"
    worse = _worse_by(quartiles(a)[1], quartiles(b)[1], better)
    if worse > bound:
        return "worse"
    if -worse > bound:
        return "better"
    return "within bound"


def claim(a: Sequence[float], b: Sequence[float], better: str) -> dict:
    """Check a claimed gain of B over A.

    Runs pair up by position (same seed, alternating order).  The claim
    holds when B wins at least nine tenths of the pairs (ties count for
    neither side) and the medians differ, in B's favour, by more than A's
    inter-quartile range.
    """
    pairs: List[Tuple[float, float]] = list(zip(a, b))
    wins = sum(1 for x, y in pairs if _beats(y, x, better))
    q1, median_a, q3 = quartiles(a)
    median_b = quartiles(b)[1]
    gap = median_a - median_b if better == "lower" else median_b - median_a
    return {
        "pairs": len(pairs),
        "wins": wins,
        "median_gain": gap,
        "parent_iqr": q3 - q1,
        "met": bool(pairs) and wins >= 0.9 * len(pairs) and gap > q3 - q1,
    }
