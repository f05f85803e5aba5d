"""Cross-generation comparison (Section 7's narrative as a table)."""

import pytest

from repro.core.comparison import PRIOR_GENERATIONS, GenerationComparison


@pytest.fixture(scope="module")
def comparison(study):
    return GenerationComparison(study.error_statistics(), study.propagation())


class TestPriorGenerations:
    def test_kepler_always_interrupts(self):
        kepler = PRIOR_GENERATIONS["kepler"]
        assert kepler.dbe_job_interruption_prob == 1.0
        assert not kepler.has_error_containment
        assert kepler.retirement_budget == 64

    def test_no_prior_generation_has_gsp(self):
        assert not any(p.has_gsp for p in PRIOR_GENERATIONS.values())


class TestComparison:
    def test_ampere_row_appended_and_measured(self, comparison):
        rows = comparison.rows()
        assert len(rows) == len(PRIOR_GENERATIONS) + 1
        ampere = rows[-1]
        assert ampere.measured
        assert ampere.has_error_containment
        assert ampere.retirement_budget == 512

    def test_measured_interruption_far_below_certainty(self, comparison):
        measured = comparison.measured_dbe_interruption_prob()
        # Paper: ~29.4% of DBEs still interrupt (100% pre-Ampere).
        assert 0.0 <= measured < 0.7

    def test_new_failure_modes_include_gsp(self, comparison):
        modes = comparison.new_failure_modes()
        assert any("GSP" in mode for mode in modes)
        assert any("uncontained" in mode for mode in modes)
