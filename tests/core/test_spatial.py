"""Spatial concentration analysis."""

import pytest

from repro.core.coalesce import CoalescedError
from repro.core.spatial import (
    SpatialAnalyzer,
    gini_coefficient,
    lorenz_points,
)


def _errors(spec):
    """spec: list of (gpu_index, count) -> errors on synthetic GPUs."""
    out = []
    t = 0.0
    for gpu_index, count in spec:
        for _ in range(count):
            out.append(
                CoalescedError(t, f"n{gpu_index // 4}", f"p{gpu_index}", 95, 0.0, 1)
            )
            t += 10.0
    return out


class TestGini:
    def test_uniform_is_zero(self):
        assert gini_coefficient([5, 5, 5, 5]) == pytest.approx(0.0, abs=1e-9)

    def test_single_holder_maximal(self):
        value = gini_coefficient([100, 0, 0, 0])
        assert value == pytest.approx(0.75)  # (n-1)/n for n=4

    def test_population_padding_raises_inequality(self):
        concentrated = gini_coefficient([10, 10], population=100)
        among_affected = gini_coefficient([10, 10])
        assert concentrated > 0.9
        assert among_affected == pytest.approx(0.0, abs=1e-9)

    def test_empty(self):
        assert gini_coefficient([]) == 0.0

    def test_population_validation(self):
        with pytest.raises(ValueError):
            gini_coefficient([1, 2, 3], population=2)


class TestLorenz:
    def test_top_k_shares(self):
        points = lorenz_points([70, 20, 5, 5], ks=(1, 2))
        assert points[1] == pytest.approx(0.70)
        assert points[2] == pytest.approx(0.90)

    def test_k_beyond_size(self):
        assert lorenz_points([10], ks=(4,))[4] == pytest.approx(1.0)

    def test_empty(self):
        assert lorenz_points([], ks=(1,))[1] == 0.0


class TestSpatialAnalyzer:
    def test_offender_detected_with_huge_surprise(self):
        analyzer = SpatialAnalyzer(_errors([(0, 500), (1, 1), (2, 1)]), n_gpus=800)
        offenders = analyzer.offenders(95)
        assert offenders
        top = offenders[0]
        assert top.count == 500
        assert top.share > 0.99
        assert top.surprise > 100

    def test_uniform_spread_no_offenders(self):
        spec = [(i, 2) for i in range(100)]
        analyzer = SpatialAnalyzer(_errors(spec), n_gpus=120)
        assert analyzer.offenders(95) == []

    def test_affected_fraction(self):
        analyzer = SpatialAnalyzer(_errors([(0, 3), (1, 2)]), n_gpus=100)
        assert analyzer.affected_gpu_fraction(95) == pytest.approx(0.02)

    def test_validation(self):
        with pytest.raises(ValueError):
            SpatialAnalyzer([], n_gpus=0)


class TestOnDataset:
    def test_uncontained_concentration_matches_paper(self, study, dataset):
        """Section 4.2 (iii): >90% of uncontained errors from a few GPUs;
        Section 4.4.3: only ~0.5% of GPUs ever saw one."""
        errors = study.error_statistics().errors
        n_gpus = len(dataset.cluster.gpus_of_model(
            *(type(dataset.cluster.gpus[0].model)(m) for m in ("A40", "A100"))
        ))
        analyzer = SpatialAnalyzer(errors, n_gpus=n_gpus)
        assert analyzer.top_share(95, k=4) > 0.9
        assert analyzer.affected_gpu_fraction(95) < 0.02
        assert analyzer.gini(95) > 0.99
        offenders = analyzer.offenders(95)
        assert offenders and offenders[0].surprise > 1_000

    def test_mmu_less_concentrated_than_uncontained(self, study, dataset):
        errors = study.error_statistics().errors
        analyzer = SpatialAnalyzer(errors, n_gpus=848)
        assert analyzer.top_share(31, k=1) < analyzer.top_share(95, k=1)
        assert analyzer.affected_gpu_fraction(31) > analyzer.affected_gpu_fraction(95)
