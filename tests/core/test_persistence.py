"""Persistence analysis: lost GPU-hours and tail accounting (Section 4.3)."""

import pytest

from repro.core.coalesce import CoalescedError
from repro.core.persistence import PersistenceAnalyzer
from repro.faults.xid import Xid


def _error(persistence, xid=95, n_raw=2, t=0.0):
    return CoalescedError(
        time=t, node_id="n1", pci_bus="p", xid=xid, persistence=persistence,
        n_raw=n_raw,
    )


class TestLostGpuHours:
    def test_total_is_sum_of_persistence(self):
        analyzer = PersistenceAnalyzer([_error(3_600.0), _error(1_800.0)])
        assert analyzer.tail_analysis().total_lost_gpu_hours == pytest.approx(1.5)

    def test_empty(self):
        analyzer = PersistenceAnalyzer([])
        assert analyzer.tail_analysis().total_lost_gpu_hours == 0.0
        assert analyzer.tail_analysis().tail_share == 0.0


class TestTailAnalysis:
    def test_tail_dominates_when_distribution_is_heavy(self):
        # 99 short + 1 huge: the single tail error carries nearly all loss —
        # the paper's "91% of lost hours from beyond-P95 errors".
        errors = [_error(1.0, t=float(i)) for i in range(99)] + [_error(50_000.0)]
        analysis = PersistenceAnalyzer(errors).tail_analysis()
        assert analysis.tail_share > 0.9

    def test_tail_share_zero_for_uniform(self):
        errors = [_error(10.0, t=float(i)) for i in range(100)]
        analysis = PersistenceAnalyzer(errors).tail_analysis()
        assert analysis.tail_share == 0.0

    def test_tail_computed_per_code(self):
        # A code with uniformly-large persistence must not put another
        # code's small errors into the tail.
        errors = [_error(1.0, xid=31, t=float(i)) for i in range(50)] + [
            _error(1_000.0, xid=95, t=float(i)) for i in range(50)
        ]
        analysis = PersistenceAnalyzer(errors).tail_analysis()
        assert analysis.tail_share < 0.1

    def test_shared_dataset_tail_share_matches_paper(self, study):
        # Section 4.3: ~91% of lost GPU-hours sit beyond the P95.
        share = study.persistence().tail_analysis().tail_share
        assert share > 0.6

    def test_loss_dominated_by_uncontained(self, study):
        stats = study.error_statistics()
        per_code = {xid: stats.persistence_summary(xid).total for xid in stats.counts()}
        assert per_code[int(Xid.UNCONTAINED)] / sum(per_code.values()) > 0.9


class TestWatchlist:
    def test_longest(self):
        errors = [_error(float(p), t=float(p)) for p in (5, 50, 500)]
        longest = PersistenceAnalyzer(errors).longest(2)
        assert [e.persistence for e in longest] == [500.0, 50.0]

    def test_watchlist_is_all_uncontained(self, study):
        # The SRE watchlist (longest persistences) surfaces the offender.
        longest = study.persistence().longest(10)
        assert all(e.xid == int(Xid.UNCONTAINED) for e in longest)
        assert longest[0].persistence > 3_600.0
