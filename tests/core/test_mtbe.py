"""Error statistics: MTBE, category comparison, offenders, restriction."""

import math

import pytest

from repro.core.coalesce import CoalescedError
from repro.core.mtbe import ErrorStatistics
from repro.faults.xid import Xid


def _error(t, xid=31, node="n1", pci="0000:07:00", persistence=0.0):
    return CoalescedError(
        time=t, node_id=node, pci_bus=pci, xid=xid, persistence=persistence, n_raw=1
    )


@pytest.fixture()
def stats():
    errors = (
        [_error(float(i), xid=31) for i in range(10)]
        + [_error(100.0 + i, xid=48, pci="0000:46:00") for i in range(2)]
        + [_error(200.0 + i, xid=119, node="n2") for i in range(4)]
        + [_error(300.0 + i, xid=13) for i in range(5)]  # user-induced
    )
    return ErrorStatistics(errors, window_hours=1_000.0, n_nodes=10)


class TestCountsAndExclusion:
    def test_user_codes_excluded_but_counted(self, stats):
        assert stats.total_count == 16
        assert stats.excluded_count == 5
        assert 13 not in stats.counts()

    def test_per_code_counts(self, stats):
        assert stats.counts() == {31: 10, 48: 2, 119: 4}

    def test_unknown_codes_kept(self):
        stats = ErrorStatistics([_error(0.0, xid=999)], 10.0, 1)
        assert stats.total_count == 1
        assert stats.counts() == {999: 1}


class TestMtbe:
    def test_all_nodes_mtbe(self, stats):
        assert stats.mtbe_all_nodes_hours(31) == pytest.approx(100.0)

    def test_per_node_mtbe_scales_by_population(self, stats):
        assert stats.mtbe_per_node_hours(31) == pytest.approx(1_000.0)

    def test_overall_mtbe(self, stats):
        # 10,000 node-hours / 16 errors.
        assert stats.overall_mtbe_node_hours() == pytest.approx(625.0)

    def test_absent_code_infinite(self, stats):
        assert math.isinf(stats.mtbe_all_nodes_hours(74))

    def test_combined_mtbe(self, stats):
        assert stats.combined_mtbe_per_node_hours([31, 48]) == pytest.approx(
            10_000.0 / 12
        )

    def test_invalid_window_rejected(self):
        with pytest.raises(ValueError):
            ErrorStatistics([], window_hours=0.0, n_nodes=1)


class TestMemoryVsHardware:
    def test_ratio_uses_paper_partition(self):
        errors = [_error(float(i), xid=48) for i in range(2)] + [
            _error(100.0 + i, xid=119) for i in range(60)
        ]
        stats = ErrorStatistics(errors, 1_000.0, 10)
        assert stats.memory_vs_hardware_ratio() == pytest.approx(30.0)

    def test_ratio_on_shared_dataset_matches_paper(self, study):
        # The headline ">30x" claim, end-to-end.
        ratio = study.error_statistics().memory_vs_hardware_ratio()
        assert 15 < ratio < 80

    def test_uncontained_does_not_enter_memory_side(self):
        errors = [_error(float(i), xid=95) for i in range(1_000)] + [
            _error(5_000.0, xid=48)
        ] + [_error(6_000.0 + i, xid=119) for i in range(10)]
        stats = ErrorStatistics(errors, 1_000.0, 10)
        # If XID 95 counted as memory, the ratio would collapse below 1.
        assert stats.memory_vs_hardware_ratio() > 5


class TestOffenders:
    def test_top_offenders_and_share(self):
        errors = [_error(float(i), xid=95, pci="0000:07:00") for i in range(99)] + [
            _error(500.0, xid=95, pci="0000:46:00")
        ]
        stats = ErrorStatistics(errors, 1_000.0, 10)
        (gpu, count), = stats.top_offenders(95, 1)
        assert gpu == ("n1", "0000:07:00") and count == 99

    def test_top_offenders_absent_code(self, stats):
        assert stats.top_offenders(74) == []


class TestRestriction:
    def test_exclude_gpus(self, stats):
        restricted = stats.restricted(exclude_gpus=[("n1", "0000:07:00")])
        assert restricted.counts() == {48: 2, 119: 4}

    def test_exclude_xids(self, stats):
        restricted = stats.restricted(exclude_xids=[31])
        assert 31 not in restricted.counts()
        assert restricted.total_count == 6

    def test_restriction_preserves_window(self, stats):
        restricted = stats.restricted(exclude_xids=[31])
        assert restricted.window_hours == stats.window_hours
        assert restricted.n_nodes == stats.n_nodes


class TestTable1Rows:
    def test_rows_sorted_and_complete(self, stats):
        rows = stats.table1_rows()
        assert [r.xid for r in rows] == [31, 48, 119]
        mmu = rows[0]
        assert mmu.count == 10
        assert mmu.persistence.count == 10

    def test_persistence_summary(self):
        errors = [_error(0.0, persistence=2.0), _error(100.0, persistence=4.0)]
        stats = ErrorStatistics(errors, 10.0, 1)
        summary = stats.persistence_summary(31)
        assert summary.mean == pytest.approx(3.0)
