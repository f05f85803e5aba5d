"""XID catalog invariants."""

from repro.faults.xid import (
    HARDWARE_MTBE_XIDS,
    MEMORY_MTBE_XIDS,
    XID_CATALOG,
    RecoveryAction,
    Xid,
    XidCategory,
    is_studied,
)


class TestCatalog:
    def test_every_code_catalogued(self):
        assert set(XID_CATALOG) == set(Xid)

    def test_table1_rows_are_studied(self):
        # The ten Table-1 codes, plus the Section-6 H100 code 136, which
        # Stage III counts alike but Table 1 (Ampere) has no row for.
        expected = {31, 48, 63, 64, 74, 79, 94, 95, 119, 122}
        studied = {int(x) for x in XID_CATALOG if is_studied(x)}
        assert studied == expected | {136}

    def test_user_codes_excluded(self):
        assert not XID_CATALOG[Xid.GENERAL_SW].studied
        assert not XID_CATALOG[Xid.RESET_CHANNEL].studied

    def test_categories_match_paper_taxonomy(self):
        assert XID_CATALOG[Xid.GSP].category is XidCategory.HARDWARE
        assert XID_CATALOG[Xid.DBE].category is XidCategory.MEMORY
        assert XID_CATALOG[Xid.NVLINK].category is XidCategory.INTERCONNECT
        assert XID_CATALOG[Xid.XID_136].category is XidCategory.UNKNOWN

    def test_gsp_requires_node_reboot(self):
        # Figure 1: GSP errors required draining + full node reboot.
        assert XID_CATALOG[Xid.GSP].recovery is RecoveryAction.NODE_REBOOT
        assert XID_CATALOG[Xid.GSP].renders_gpu_inoperable

    def test_mtbe_comparison_sets_disjoint(self):
        assert not set(MEMORY_MTBE_XIDS) & set(HARDWARE_MTBE_XIDS)

    def test_uncontained_not_in_memory_comparison(self):
        # Section 4.2 (iii): uncontained errors excluded from the 30x ratio.
        assert Xid.UNCONTAINED not in MEMORY_MTBE_XIDS


class TestHelpers:
    def test_is_studied_counts_every_code_but_the_user_ones(self):
        assert is_studied(95) and is_studied(Xid.MMU)
        assert not is_studied(13) and not is_studied(Xid.RESET_CHANNEL)
        assert is_studied(62)  # outside the catalog
