"""Online risk scoring backed by :mod:`repro.core.prediction`.

The registry's default scorer is a static-prior heuristic; this module
wires in the paper's Section-4.3 ML suggestion instead: a
:class:`~repro.core.prediction.PersistencePredictor` trained offline (on
a synthesized window, or on your own cluster's history) and queried
online with features the registry genuinely has while a run is still
open — early line count, early mean gap, early span, and the GPU's prior
run count.
"""

from __future__ import annotations

import numpy as np

from repro.core.parsing import parse_batch
from repro.core.prediction import PersistencePredictor, extract_runs
from repro.fleet.registry import GpuHealth, OpenRunView, RiskScorer


def predictor_scorer(predictor: PersistencePredictor) -> RiskScorer:
    """Adapt a fitted predictor into a registry risk scorer.

    The returned callable feeds the live open-run view straight into the
    predictor's online adapter
    (:meth:`~repro.core.prediction.PersistencePredictor.score_online`)
    and returns P(run long-persists).
    """
    if predictor.weights is None:
        raise ValueError("predictor must be fitted before serving risk scores")

    def score(health: GpuHealth, run: OpenRunView) -> float:
        return predictor.score_online(
            xid=run.xid,
            early_lines=run.early_lines,
            early_mean_gap=run.early_mean_gap,
            early_span=run.early_span,
            gpu_prior_runs=max(health.total_onsets - 1, 0),
        )

    return score


#: Scale of the synthesized window :func:`fit_risk_model` trains on.
RISK_MODEL_SCALE = 0.004


def fit_risk_model(*, seed: int = 7) -> PersistencePredictor:
    """Train a persistence predictor on a synthesized observation window.

    A service that has no historical record archive yet can bootstrap its
    risk model from the calibrated substrate; pass the result to
    :func:`predictor_scorer`.  Training and live scoring share one
    observation window, :data:`~repro.core.prediction.OBSERVE_SECONDS`.
    """
    from repro.datasets import synthesize_delta

    dataset = synthesize_delta(scale=RISK_MODEL_SCALE, seed=seed)
    batch = parse_batch(dataset.log_lines(include_noise=False))
    records = batch.take(np.argsort(batch.time, kind="stable"))
    return PersistencePredictor().fit(extract_runs(records))
