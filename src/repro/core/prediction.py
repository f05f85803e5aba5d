"""Predicting long-persisting errors from their first seconds.

The paper's forward-looking suggestion (Section 4.3): "A potential solution
would be to develop an ML model (e.g., a Bayesian model) to predict the
onset of these long persisting errors for preventive actions."

This module implements that model end-to-end on the reproduction's data:

* features are computed from the first :data:`OBSERVE_SECONDS` of each
  error's duplicate-line run — information genuinely available online
  (the streaming coalescer counts the same lines on each open run);
* the label is whether the run ultimately persists beyond a threshold;
* the classifier is a small logistic regression trained by gradient
  descent (NumPy only), with a Laplace-smoothed per-XID prior as one of
  the features (the "Bayesian" ingredient).

``tests/core/test_prediction.py`` checks the precision/recall it achieves
on held-out data; ``replay backtest`` scores it the same way.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

from repro.core.coalesce import CoalesceConfig, _split_at_cutoff
from repro.core.parsing import RawXidRecord

GroupKey = Tuple[str, str, int, str]

#: The observation window (seconds from a run's first line) the online
#: features cover, shared by training and live scoring.
OBSERVE_SECONDS = 300.0

#: Gradient-descent settings of :meth:`PersistencePredictor.fit`.
LEARNING_RATE = 0.3
EPOCHS = 400
L2 = 1e-3


@dataclass(frozen=True)
class RunExample:
    """One error run: online features plus the (offline) label."""

    xid: int
    gpu_key: Tuple[str, str]
    start_time: float
    #: Lines observed within the observation window.
    early_lines: int
    #: Mean inter-line gap inside the observation window (seconds).
    early_mean_gap: float
    #: Span from the run's first line to its last line inside the window —
    #: a run still emitting at the window's edge is the strongest live
    #: signal that it will keep persisting.
    early_span: float
    #: Errors previously seen on the same GPU (any code) — repeat offenders
    #: keep offending.
    gpu_prior_runs: int
    #: Ground truth: final persistence in seconds.
    final_persistence: float


def extract_runs(
    records: Iterable[RawXidRecord],
    *,
    observe_seconds: float = OBSERVE_SECONDS,
) -> List[RunExample]:
    """Group raw records into runs and compute online features per run.

    Runs are Algorithm 1's: a group's times split at every gap over the
    coalescing window, and a run longer than the one-day cut-off splits
    by the same greedy rule :func:`~repro.core.coalesce.coalesce_errors`
    applies.
    """
    per_group: Dict[GroupKey, List[float]] = {}
    for record in records:
        key = (record.node_id, record.pci_bus, record.xid, record.message)
        per_group.setdefault(key, []).append(record.time)

    config = CoalesceConfig()
    raw_runs: List[Tuple[GroupKey, np.ndarray]] = []
    for key, times in per_group.items():
        arr = np.sort(np.asarray(times))
        breaks = np.flatnonzero(np.diff(arr) > config.window_seconds)
        starts = np.concatenate(([0], breaks + 1))
        ends = np.concatenate((breaks, [arr.size - 1]))
        over = ~(arr[ends] - arr[starts] <= config.max_persistence)
        if over.any():
            starts, ends = _split_at_cutoff(arr, starts, ends, over, config)
        raw_runs.extend(
            (key, arr[start:end + 1]) for start, end in zip(starts.tolist(), ends.tolist())
        )

    raw_runs.sort(key=lambda pair: pair[1][0])
    gpu_seen: Dict[Tuple[str, str], int] = {}
    examples: List[RunExample] = []
    for (node_id, pci_bus, xid, _msg), times in raw_runs:
        gpu = (node_id, pci_bus)
        early = times[times <= times[0] + observe_seconds]
        gaps = np.diff(early)
        examples.append(
            RunExample(
                xid=xid,
                gpu_key=gpu,
                start_time=float(times[0]),
                early_lines=int(early.size),
                early_mean_gap=float(gaps.mean()) if gaps.size else observe_seconds,
                early_span=float(early[-1] - early[0]),
                gpu_prior_runs=gpu_seen.get(gpu, 0),
                final_persistence=float(times[-1] - times[0]),
            )
        )
        gpu_seen[gpu] = gpu_seen.get(gpu, 0) + 1
    return examples


class PersistencePredictor:
    """Logistic regression over online run features."""

    def __init__(self, long_threshold_seconds: float = 600.0) -> None:
        self.long_threshold_seconds = long_threshold_seconds
        self.weights: np.ndarray | None = None
        self._xid_prior: Dict[int, float] = {}
        self._feature_mean: np.ndarray | None = None
        self._feature_std: np.ndarray | None = None

    # ------------------------------------------------------------------

    def labels(self, examples: Sequence[RunExample]) -> np.ndarray:
        return np.array(
            [e.final_persistence > self.long_threshold_seconds for e in examples],
            dtype=float,
        )

    def _fit_priors(self, examples: Sequence[RunExample], labels: np.ndarray) -> None:
        """Laplace-smoothed P(long | XID): the Bayesian prior feature."""
        totals: Dict[int, int] = {}
        longs: Dict[int, int] = {}
        for example, label in zip(examples, labels):
            totals[example.xid] = totals.get(example.xid, 0) + 1
            longs[example.xid] = longs.get(example.xid, 0) + int(label)
        self._xid_prior = {
            xid: (longs.get(xid, 0) + 1.0) / (count + 2.0)
            for xid, count in totals.items()
        }

    def _features(self, examples: Sequence[RunExample]) -> np.ndarray:
        rows = np.array(
            [
                [
                    1.0,  # bias
                    self._xid_prior.get(e.xid, 0.5),
                    np.log1p(e.early_lines),
                    e.early_mean_gap,
                    e.early_span,
                    np.log1p(e.gpu_prior_runs),
                ]
                for e in examples
            ]
        )
        return rows

    def fit(self, examples: Sequence[RunExample]) -> "PersistencePredictor":
        if not examples:
            raise ValueError("cannot fit on an empty example set")
        labels = self.labels(examples)
        self._fit_priors(examples, labels)
        features = self._features(examples)
        self._feature_mean = features.mean(axis=0)
        self._feature_std = features.std(axis=0) + 1e-9
        self._feature_mean[0] = 0.0  # keep the bias column as-is
        self._feature_std[0] = 1.0
        normalized = (features - self._feature_mean) / self._feature_std

        # Class-balanced sample weights: long-persisting runs are ~1-2% of
        # the stream (exactly the paper's tail), so unweighted training
        # would predict "short" everywhere.
        n_positive = max(labels.sum(), 1.0)
        n_negative = max((1.0 - labels).sum(), 1.0)
        sample_weight = np.where(
            labels > 0.5, n_negative / n_positive, 1.0
        )
        sample_weight = sample_weight / sample_weight.mean()

        weights = np.zeros(normalized.shape[1])
        n = normalized.shape[0]
        for _ in range(EPOCHS):
            scores = normalized @ weights
            probabilities = 1.0 / (1.0 + np.exp(-scores))
            gradient = (
                normalized.T @ ((probabilities - labels) * sample_weight) / n
                + L2 * weights
            )
            weights -= LEARNING_RATE * gradient
        self.weights = weights
        return self

    # ------------------------------------------------------------------

    def predict_proba(self, examples: Sequence[RunExample]) -> np.ndarray:
        if self.weights is None:
            raise RuntimeError("predictor is not fitted")
        features = self._features(examples)
        normalized = (features - self._feature_mean) / self._feature_std
        return 1.0 / (1.0 + np.exp(-(normalized @ self.weights)))

    def score_online(
        self,
        *,
        xid: int,
        early_lines: int,
        early_mean_gap: float,
        early_span: float,
        gpu_prior_runs: int,
    ) -> float:
        """Score one *open* run from its online features alone.

        The serving-side adapter: callers with a live open-run view (the
        fleet registry, the replay engine) pass exactly the features
        available while the run is still emitting — no
        :class:`RunExample` with a placeholder label required.  Returns
        P(run persists beyond the long threshold).
        """
        example = RunExample(
            xid=xid,
            gpu_key=("", ""),
            start_time=0.0,
            early_lines=early_lines,
            early_mean_gap=early_mean_gap,
            early_span=early_span,
            gpu_prior_runs=gpu_prior_runs,
            final_persistence=float("nan"),  # never read by the feature map
        )
        return float(self.predict_proba([example])[0])



# ---------------------------------------------------------------------------
# Precision/recall curves (backtest scoring)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PrPoint:
    """One operating point of a score threshold sweep."""

    threshold: float
    precision: float
    recall: float
    predicted_positives: int


def pr_curve(
    labels: Sequence[bool],
    scores: Sequence[float],
    thresholds: Sequence[float],
) -> List[PrPoint]:
    """Precision/recall at each threshold of a fixed, explicit grid.

    A fixed grid (rather than the scores' own unique values) keeps the
    curve's shape — and its serialized bytes — stable across runs that
    produce slightly different score sets, which is what a reproducible
    scorecard needs.  Precision at a threshold nobody crosses is NaN-free:
    it reports 1.0 with zero predicted positives, the conventional
    degenerate point.
    """
    label_arr = np.asarray(labels, dtype=bool)
    score_arr = np.asarray(scores, dtype=float)
    if label_arr.shape != score_arr.shape:
        raise ValueError("labels and scores must align")
    n_positive = int(label_arr.sum())
    points: List[PrPoint] = []
    for threshold in thresholds:
        predicted = score_arr >= threshold
        tp = int(np.sum(predicted & label_arr))
        n_predicted = int(predicted.sum())
        precision = tp / n_predicted if n_predicted else 1.0
        recall = tp / n_positive if n_positive else 0.0
        points.append(
            PrPoint(
                threshold=float(threshold),
                precision=float(precision),
                recall=float(recall),
                predicted_positives=n_predicted,
            )
        )
    return points


def average_precision(labels: Sequence[bool], scores: Sequence[float]) -> float:
    """Area under the precision/recall curve (step-wise AP).

    The standard ranking metric for heavily imbalanced labels — exactly
    the long-persisting-run regime.  Ties break by stable sort, so equal
    scores contribute deterministically.
    """
    label_arr = np.asarray(labels, dtype=bool)
    score_arr = np.asarray(scores, dtype=float)
    n_positive = int(label_arr.sum())
    if n_positive == 0:
        return 0.0
    order = np.argsort(-score_arr, kind="stable")
    ranked = label_arr[order]
    cum_tp = np.cumsum(ranked)
    ranks = np.arange(1, ranked.size + 1)
    precision_at_rank = cum_tp / ranks
    return float(np.sum(precision_at_rank[ranked]) / n_positive)
