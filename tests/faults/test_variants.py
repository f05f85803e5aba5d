"""Profile variants and generative counterfactuals."""

import pytest

from repro.cluster import build_delta_cluster
from repro.faults import AMPERE_CALIBRATION, FaultInjector, InjectorConfig
from repro.faults.variants import burned_in_profile, profile_variant
from repro.faults.xid import Xid


class TestProfileVariant:
    def test_count_scaling(self):
        variant = profile_variant(
            AMPERE_CALIBRATION, count_scales={Xid.GSP: 0.1}
        )
        assert variant.xids[Xid.GSP].count == pytest.approx(214, abs=1)
        assert variant.xids[Xid.MMU].count == AMPERE_CALIBRATION.xids[Xid.MMU].count

    def test_original_untouched(self):
        profile_variant(AMPERE_CALIBRATION, count_scales={Xid.GSP: 0.0})
        assert AMPERE_CALIBRATION.xids[Xid.GSP].count == 2_136

    def test_drop_prunes_kernel_transitions(self):
        variant = profile_variant(
            AMPERE_CALIBRATION, drop_xids={Xid.UNCONTAINED: True}
        )
        assert Xid.UNCONTAINED not in variant.xids
        rrf_targets = {t.target for t in variant.kernel[Xid.RRF].transitions}
        assert Xid.UNCONTAINED not in rrf_targets
        assert Xid.CONTAINED in rrf_targets

    def test_zero_scale_removes_code(self):
        variant = profile_variant(
            AMPERE_CALIBRATION, count_scales={Xid.NVLINK: 0.0}
        )
        assert Xid.NVLINK not in variant.xids
        assert Xid.NVLINK not in variant.kernel

    def test_negative_scale_rejected(self):
        with pytest.raises(ValueError):
            profile_variant(AMPERE_CALIBRATION, count_scales={Xid.GSP: -1.0})

    def test_name_suffix(self):
        assert profile_variant(AMPERE_CALIBRATION).name.endswith("-variant")


class TestScenarioProfiles:
    def test_burned_in_removes_offender_volume(self):
        variant = burned_in_profile(AMPERE_CALIBRATION)
        # Uncontained errors were 100% offender-generated: gone entirely.
        assert Xid.UNCONTAINED not in variant.xids
        # MMU keeps its non-offender (65%-of-hardware + workload) share.
        assert variant.xids[Xid.MMU].count < AMPERE_CALIBRATION.xids[Xid.MMU].count
        assert variant.xids[Xid.MMU].offenders is None


class TestGenerativeCounterfactual:
    def test_variant_injects_cleanly(self, delta_cluster):
        variant = profile_variant(
            burned_in_profile(AMPERE_CALIBRATION),
            drop_xids={Xid.GSP: True, Xid.PMU_SPI: True, Xid.NVLINK: True},
        )
        injector = FaultInjector(variant, InjectorConfig(scale=0.05, seed=4))
        trace = injector.generate(delta_cluster)
        xids = {int(e.xid) for e in trace}
        assert 119 not in xids and 74 not in xids and 95 not in xids
        assert 31 in xids

    def test_burned_in_mtbe_improvement_matches_paper_scale(self, delta_cluster):
        """The generative counterfactual lands near the paper's 3x."""
        base = AMPERE_CALIBRATION.total_count()
        burned = burned_in_profile(AMPERE_CALIBRATION).total_count()
        # Removing offender volume leaves ~22k of 63k errors -> ~2.9x MTBE.
        assert base / burned == pytest.approx(3.0, abs=0.6)
