"""Long-persistence prediction (the paper's Section-4.3 future-work model)."""

import numpy as np
import pytest

from repro.core.coalesce import coalesce_errors
from repro.core.parsing import RawXidRecord, XidBatch
from repro.core.prediction import PersistencePredictor, RunExample, extract_runs, pr_curve


def _record(t, msg="m", node="n1", pci="p", xid=95):
    return RawXidRecord(time=float(t), node_id=node, pci_bus=pci, xid=xid, message=msg)


class TestExtractRuns:
    def test_features_from_first_window_only(self):
        times = list(np.arange(0.0, 300.0, 4.0))  # one 296s run
        runs = extract_runs([_record(t) for t in times], observe_seconds=60.0)
        (run,) = runs
        assert run.final_persistence == pytest.approx(296.0)
        assert run.early_lines == 16  # lines at 0,4,...,60
        assert 3.0 < run.early_mean_gap < 5.0
        assert run.early_span == pytest.approx(60.0)

    def test_gap_splits_runs(self):
        records = [_record(0.0), _record(3.0), _record(100.0)]
        runs = extract_runs(records)
        assert len(runs) == 2

    def test_gpu_prior_counts_previous_runs(self):
        records = [_record(0.0), _record(500.0), _record(1_000.0)]
        runs = extract_runs(records)
        assert [r.gpu_prior_runs for r in runs] == [0, 1, 2]

    def test_runs_split_at_the_one_day_cutoff_as_algorithm_1_does(self):
        # A 30-hour burst at 4 s gaps: Algorithm 1 cuts it at one day.
        records = [_record(t) for t in range(0, 30 * 3_600, 4)]
        runs = extract_runs(records)
        errors = coalesce_errors(XidBatch.from_records(records))
        assert [(r.start_time, r.final_persistence) for r in runs] == [
            (e.time, e.persistence) for e in errors
        ] == [(0.0, 86_400.0), (86_404.0, 21_592.0)]
        assert [r.gpu_prior_runs for r in runs] == [0, 1]

    def test_single_line_run_defaults(self):
        (run,) = extract_runs([_record(5.0)], observe_seconds=60.0)
        assert run.early_lines == 1
        assert run.early_mean_gap == 60.0
        assert run.early_span == 0.0
        assert run.final_persistence == 0.0


def _synthetic_examples(n=400, seed=0):
    """Short runs (xid 31) vs long offender runs (xid 95) with noise."""
    rng = np.random.default_rng(seed)
    examples = []
    for i in range(n):
        long = rng.random() < 0.3
        examples.append(
            RunExample(
                xid=95 if long or rng.random() < 0.1 else 31,
                gpu_key=("n1", "p1" if long else f"p{i%7}"),
                start_time=float(i),
                early_lines=int(rng.poisson(15 if long else 2)) + 1,
                early_mean_gap=float(rng.uniform(2, 5) if long else rng.uniform(20, 60)),
                early_span=float(rng.uniform(250, 300) if long else rng.uniform(0, 100)),
                gpu_prior_runs=int(rng.poisson(20 if long else 1)),
                final_persistence=float(
                    rng.uniform(700, 5_000) if long else rng.uniform(0, 120)
                ),
            )
        )
    return examples


@pytest.fixture(scope="module")
def dataset_split(dataset):
    """A predictor trained on the first half of the window, and the second
    half it is evaluated on: the deployment setting an SRE team would face."""
    from repro.core.parsing import parse_batch

    records = list(parse_batch(dataset.log_lines(include_noise=False)))
    runs = extract_runs(records)
    runs.sort(key=lambda r: r.start_time)
    half = len(runs) // 2
    train, test = runs[:half], runs[half:]
    return PersistencePredictor(long_threshold_seconds=600.0).fit(train), test


def _at_half(predictor, examples):
    """Precision and recall of the ``P >= 0.5`` decision."""
    labels = predictor.labels(examples).astype(bool)
    (point,) = pr_curve(labels, predictor.predict_proba(examples), [0.5])
    return point


class TestPredictor:
    def test_learns_separable_synthetic_data(self):
        examples = _synthetic_examples()
        train, test = examples[:300], examples[300:]
        point = _at_half(PersistencePredictor().fit(train), test)
        assert point.precision > 0.85
        assert point.recall > 0.85

    def test_probabilities_bounded(self):
        examples = _synthetic_examples(100)
        predictor = PersistencePredictor().fit(examples)
        probabilities = predictor.predict_proba(examples)
        assert np.all((probabilities >= 0) & (probabilities <= 1))

    def test_unfitted_rejects_predict(self):
        with pytest.raises(RuntimeError):
            PersistencePredictor().predict_proba(_synthetic_examples(5))

    def test_empty_fit_rejected(self):
        with pytest.raises(ValueError):
            PersistencePredictor().fit([])

    def test_on_dataset_beats_base_rate(self, dataset_split):
        """The model finds long-persisting errors in the held-out half far
        better than chance."""
        predictor, test = dataset_split
        positives = int(predictor.labels(test).sum())
        point = _at_half(predictor, test)
        assert positives > 5  # the offender supplies positives
        assert point.recall > 0.6
        assert point.precision > 3 * positives / len(test)

    def test_on_dataset_ranks_long_runs_higher(self, dataset_split):
        predictor, test = dataset_split
        probabilities = predictor.predict_proba(test)
        labels = predictor.labels(test).astype(bool)
        assert labels.sum() >= 5
        assert probabilities[labels].mean() > probabilities[~labels].mean() + 0.2

    def test_on_dataset_early_warning_lead_time(self, dataset_split):
        """Flagged runs are caught with hours of persistence still ahead —
        the preventive-action window the paper asks for."""
        predictor, test = dataset_split
        flagged = [
            run
            for run, p in zip(test, predictor.predict_proba(test))
            if p >= 0.5 and run.final_persistence > 600.0
        ]
        assert flagged
        lead = np.mean([run.final_persistence - 300.0 for run in flagged])
        assert lead > 600.0  # >10 minutes of actionable warning on average
