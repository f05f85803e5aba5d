"""Sharded per-GPU health registry."""

import threading

import pytest

from repro.core.parsing import RawXidRecord
from repro.fleet.registry import HealthRegistry, default_risk_scorer


def _record(t, node="gpua001", pci="0000:07:00", xid=95, msg="m"):
    return RawXidRecord(
        time=float(t), node_id=node, pci_bus=pci, xid=xid, message=msg
    )


def _health(registry, node="gpua001", pci="0000:07:00"):
    (health,) = [h for h in registry.snapshot() if (h.node_id, h.pci_bus) == (node, pci)]
    return health


def _raw_lines(registry):
    return sum(h.raw_lines for h in registry.snapshot())


class TestOnsetDetection:
    def test_duplicates_within_window_are_one_onset(self):
        registry = HealthRegistry(window_seconds=5.0)
        first = registry.ingest(_record(0.0))
        dup = registry.ingest(_record(3.0))
        assert first.onset and not dup.onset
        health = _health(registry)
        assert health.onsets == {95: 1}
        assert health.raw_lines == 2

    def test_gap_beyond_window_starts_a_new_onset(self):
        registry = HealthRegistry(window_seconds=5.0)
        registry.ingest(_record(0.0))
        again = registry.ingest(_record(100.0))
        assert again.onset
        assert _health(registry).onsets == {95: 2}
        assert registry.onset_counts() == {95: 2}

    def test_gpus_are_independent(self):
        registry = HealthRegistry()
        registry.ingest(_record(0.0, pci="0000:07:00"))
        registry.ingest(_record(1.0, pci="0000:46:00"))
        assert len(registry.snapshot()) == 2
        assert registry.open_runs() == 2
        assert _raw_lines(registry) == 2

    def test_time_regression_restarts_instead_of_crashing(self):
        """A feed that jumps backward past the coalescing window (clock
        reset, or a replayed feed restarting behind warm-started store
        history) must keep ingesting — the live thread must never die on
        one bad timestamp."""
        registry = HealthRegistry(window_seconds=5.0, rate_window_seconds=3600.0)
        registry.ingest(_record(100_000.0))
        result = registry.ingest(_record(10.0))  # far behind the open run
        assert result.onset  # a fresh run on the new timeline
        assert len(result.closed) == 1  # the stale run was closed
        health = _health(registry)
        assert health.onsets == {95: 2}
        # Rolling-rate state follows the new clock: the new onset is live.
        assert health.last_seen == 10.0
        assert health.error_rate_per_hour(3600.0) == pytest.approx(1.0)

    def test_closed_runs_surface_then_are_dropped(self):
        registry = HealthRegistry(window_seconds=5.0)
        registry.ingest(_record(0.0))
        result = registry.ingest(_record(100.0))  # closes the first run
        assert len(result.closed) == 1
        assert result.closed[0].persistence == 0.0
        # Live memory holds only open runs, never the closed history.
        assert registry.open_runs() == 1


class TestHealthMetrics:
    def test_error_rate_uses_rolling_window(self):
        registry = HealthRegistry(window_seconds=1.0, rate_window_seconds=3600.0)
        for t in (0.0, 100.0, 200.0, 7200.0):
            registry.ingest(_record(t))
        health = _health(registry)
        # Only the t=7200 onset is inside the last hour.
        assert health.error_rate_per_hour(3600.0) == pytest.approx(1.0)
        assert health.total_onsets == 4

    def test_persistence_alarm_propagates_through_ingest(self):
        registry = HealthRegistry(window_seconds=5.0, alarm_after_seconds=8.0)
        alarms = [
            registry.ingest(_record(t)).alarm for t in (0.0, 4.0, 8.0, 12.0)
        ]
        fired = [a for a in alarms if a is not None]
        assert len(fired) == 1
        assert fired[0].open_persistence == pytest.approx(8.0)
        assert registry.persistence_alarms() == 1


class TestRiskScoring:
    def test_default_score_grows_with_span_and_repeats(self):
        registry = HealthRegistry(window_seconds=100.0)
        registry.ingest(_record(0.0))
        early = _health(registry).risk_score
        registry.ingest(_record(90.0))
        late = _health(registry).risk_score
        assert 0.0 < early < late < 1.0

    def test_custom_scorer_is_used(self):
        calls = []

        def scorer(health, run):
            calls.append(((health.node_id, health.pci_bus), run.xid))
            return 0.5

        registry = HealthRegistry(risk_scorer=scorer)
        registry.ingest(_record(0.0))
        assert calls == [(("gpua001", "0000:07:00"), 95)]
        assert _health(registry).risk_score == 0.5

    def test_default_scorer_is_bounded(self):
        health = HealthRegistry().ingest(_record(0.0)).health
        from repro.fleet.registry import OpenRunView

        run = OpenRunView(
            xid=95, start=0.0, latest=1e9, n_raw=10**6,
            early_lines=100, early_span=300.0,
        )
        assert 0.0 < default_risk_scorer(health, run) <= 0.999


class TestConcurrency:
    def test_parallel_ingest_from_many_threads(self):
        """Per-GPU streams from different threads must not corrupt state."""
        registry = HealthRegistry(n_shards=4, window_seconds=0.5)
        n_per_gpu = 200

        def _ingest(node, pci):
            for t in range(n_per_gpu):
                registry.ingest(_record(float(t * 2), node=node, pci=pci))

        threads = [
            threading.Thread(target=_ingest, args=(f"gpu{i:03d}", "0000:07:00"))
            for i in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(registry.snapshot()) == 8
        # Gap 2s > window 0.5s: every record is its own onset.
        assert sum(registry.onset_counts().values()) == 8 * n_per_gpu
        assert _raw_lines(registry) == 8 * n_per_gpu

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            HealthRegistry(n_shards=0)
        with pytest.raises(ValueError):
            HealthRegistry(rate_window_seconds=0.0)
