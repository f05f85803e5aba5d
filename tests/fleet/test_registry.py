"""Per-GPU health registry."""

import threading

import pytest

from repro.core.parsing import RawXidRecord
from repro.core.prediction import extract_runs
from repro.fleet.registry import HealthRegistry, default_risk_scorer
from repro.fleet.risk import fit_risk_model, predictor_scorer


def _record(t, node="gpua001", pci="0000:07:00", xid=95, msg="m"):
    return RawXidRecord(
        time=float(t), node_id=node, pci_bus=pci, xid=xid, message=msg
    )


def _health(registry, node="gpua001", pci="0000:07:00"):
    (health,) = [h for h in registry.snapshot() if (h.node_id, h.pci_bus) == (node, pci)]
    return health


def _raw_lines(registry):
    return sum(h.raw_lines for h in registry.snapshot())


@pytest.fixture(scope="module")
def risk_model():
    """The model ``serve --trained-risk`` fits."""
    return fit_risk_model(seed=11)


class TestOnsetDetection:
    def test_duplicates_within_window_are_one_onset(self):
        registry = HealthRegistry()
        first = registry.ingest(_record(0.0))
        dup = registry.ingest(_record(3.0))
        assert first.onset and not dup.onset
        health = _health(registry)
        assert health.onsets == {95: 1}
        assert health.raw_lines == 2

    def test_gap_beyond_window_starts_a_new_onset(self):
        registry = HealthRegistry()
        registry.ingest(_record(0.0))
        again = registry.ingest(_record(100.0))
        assert again.onset
        assert _health(registry).onsets == {95: 2}
        assert registry.onset_counts() == {95: 2}
        # Live memory holds only open runs, never the closed history.
        assert registry.open_runs() == 1

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
        registry = HealthRegistry()
        registry.ingest(_record(100_000.0))
        result = registry.ingest(_record(10.0))  # far behind the open run
        assert result.onset  # a fresh run on the new timeline
        assert registry.open_runs() == 1  # the stale run was closed
        health = _health(registry)
        assert health.onsets == {95: 2}
        # Rolling-rate state follows the new clock: the new onset is live.
        assert health.last_seen == 10.0
        assert health.error_rate_per_hour() == pytest.approx(1.0)


class TestHealthMetrics:
    def test_error_rate_uses_rolling_window(self):
        registry = HealthRegistry()
        for t in (0.0, 100.0, 200.0, 7200.0):
            registry.ingest(_record(t))
        health = _health(registry)
        # Only the t=7200 onset is inside the last hour.
        assert health.error_rate_per_hour() == pytest.approx(1.0)
        assert health.total_onsets == 4

    def test_persistence_alarm_propagates_through_ingest(self):
        registry = HealthRegistry(alarm_after_seconds=8.0)
        alarms = [
            registry.ingest(_record(t)).alarm for t in (0.0, 4.0, 8.0, 12.0)
        ]
        fired = [a for a in alarms if a is not None]
        assert len(fired) == 1
        assert fired[0].open_persistence == pytest.approx(8.0)
        assert registry.persistence_alarms() == 1


class TestRiskScoring:
    def test_default_score_grows_with_span_and_repeats(self):
        registry = HealthRegistry()
        registry.ingest(_record(0.0))
        early = _health(registry).risk_score
        for t in range(4, 92, 4):  # one run, open for 88 s
            registry.ingest(_record(t))
        longer = _health(registry).risk_score
        registry.ingest(_record(200.0))  # a second run starts fresh
        repeat = _health(registry).risk_score
        assert 0.0 < early < longer < 1.0
        assert early < repeat < 1.0

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
            xid=95, start=0.0, latest=1e9, early_lines=100, early_span=300.0,
        )
        assert 0.0 < default_risk_scorer(health, run) <= 0.999

    @pytest.mark.parametrize(
        "times",
        [(0.0,), (0.0, 2.0, 2.0, 4.0)],
        ids=["one line", "repeated timestamp"],
    )
    def test_live_features_are_the_training_features(self, risk_model, times):
        """A trained scorer sees a live run exactly as the model saw its
        training examples: the same early-line count, span and mean gap."""
        records = [_record(t) for t in times]
        registry = HealthRegistry(risk_scorer=predictor_scorer(risk_model))
        for record in records:
            registry.ingest(record)
        (example,) = extract_runs(records)
        offline = float(risk_model.predict_proba([example])[0])
        assert _health(registry).risk_score == pytest.approx(offline, rel=1e-12)


class TestConcurrency:
    def test_parallel_ingest_from_many_threads(self):
        """Per-GPU streams from different threads must not corrupt state."""
        registry = HealthRegistry()
        n_per_gpu = 200

        def _ingest(node, pci):
            for t in range(n_per_gpu):
                registry.ingest(_record(float(t * 10), node=node, pci=pci))

        threads = [
            threading.Thread(target=_ingest, args=(f"gpu{i:03d}", "0000:07:00"))
            for i in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(registry.snapshot()) == 8
        # Gap 10s > the 5s window: every record is its own onset.
        assert sum(registry.onset_counts().values()) == 8 * n_per_gpu
        assert _raw_lines(registry) == 8 * n_per_gpu

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            HealthRegistry(alarm_after_seconds=0.0)
