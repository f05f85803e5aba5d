"""Statistics helpers, including the (mean, P50) -> log-normal inversion."""

import numpy as np
import pytest

from repro.util.stats import (
    DurationSummary,
    lognormal_from_mean_p50,
    summarize_durations,
)


class TestSummarizeDurations:
    def test_empty_gives_zeros(self):
        summary = summarize_durations([])
        assert summary == DurationSummary(0, 0.0, 0.0, 0.0, 0.0)

    def test_basic_fields(self):
        summary = summarize_durations([1.0, 2.0, 3.0, 4.0])
        assert summary.count == 4
        assert summary.mean == pytest.approx(2.5)
        assert summary.p50 == pytest.approx(2.5)
        assert summary.total == pytest.approx(10.0)

    def test_p95_tracks_tail(self):
        values = [1.0] * 99 + [100.0]
        assert summarize_durations(values).p95 == pytest.approx(1.0, abs=0.2)


class TestLognormalInversion:
    def test_recovers_mean_and_median(self):
        params = lognormal_from_mean_p50(mean=10.0, p50=4.0)
        assert params.mean == pytest.approx(10.0)
        assert params.median == pytest.approx(4.0)

    def test_sampling_matches_parameters(self):
        params = lognormal_from_mean_p50(mean=10.0, p50=4.0)
        rng = np.random.default_rng(0)
        sample = params.sample(rng, 200_000)
        assert np.median(sample) == pytest.approx(4.0, rel=0.05)
        assert sample.mean() == pytest.approx(10.0, rel=0.05)

    def test_degenerate_ratio_falls_back_to_narrow(self):
        # Rounded tables can report mean <= median; the inversion must not
        # produce NaN sigma.
        params = lognormal_from_mean_p50(mean=3.9, p50=4.0)
        assert params.sigma == pytest.approx(0.05)

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            lognormal_from_mean_p50(0.0, 1.0)
        with pytest.raises(ValueError):
            lognormal_from_mean_p50(1.0, -1.0)

