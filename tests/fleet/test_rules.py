"""Alert rule engine: thresholds, precursors, cooldowns, sinks."""

import json

import pytest

from repro.core.parsing import RawXidRecord
from repro.core.streaming import PersistenceAlarm
from repro.fleet.registry import HealthRegistry
from repro.fleet.rules import (
    Action,
    AlertRule,
    JsonLinesSink,
    MemorySink,
    RuleEngine,
    Scope,
    default_rules,
)


def _record(t, node="gpua001", pci="0000:07:00", xid=119, msg="m"):
    return RawXidRecord(
        time=float(t), node_id=node, pci_bus=pci, xid=xid, message=msg
    )


def _engine(*rules):
    sink = MemorySink()
    return RuleEngine(rules, sinks=[sink]), sink


class TestThresholdRules:
    def test_fires_at_min_count_within_window(self):
        rule = AlertRule(
            name="r", description="", action=Action.RESET_GPU,
            xids=(119,), min_count=3, window_seconds=100.0,
        )
        engine, sink = _engine(rule)
        for t in (0.0, 40.0):
            assert engine.observe_onset(_record(t)) == []
        fired = engine.observe_onset(_record(80.0))
        assert len(fired) == 1
        assert fired[0].action is Action.RESET_GPU
        assert fired[0].details["window_count"] == 3
        assert [a for a in sink.alerts if a.action is Action.RESET_GPU] == fired

    def test_window_expiry_forgets_old_onsets(self):
        rule = AlertRule(
            name="r", description="", action=Action.RESET_GPU,
            xids=(119,), min_count=2, window_seconds=10.0,
        )
        engine, _ = _engine(rule)
        engine.observe_onset(_record(0.0))
        # 100s later: the first onset has left the window.
        assert engine.observe_onset(_record(100.0)) == []
        assert engine.observe_onset(_record(105.0)) != []

    def test_cooldown_suppresses_alert_storms(self):
        rule = AlertRule(
            name="r", description="", action=Action.REPLACE_GPU,
            xids=(95,), min_count=1, window_seconds=60.0,
            cooldown_seconds=600.0,
        )
        engine, sink = _engine(rule)
        for t in (0.0, 10.0, 20.0):
            engine.observe_onset(_record(t, xid=95))
        assert len(sink.alerts) == 1  # storm collapsed to one alert
        engine.observe_onset(_record(700.0, xid=95))  # cooldown elapsed
        assert len(sink.alerts) == 2

    def test_gpu_scope_isolates_parts_node_scope_aggregates(self):
        per_gpu = AlertRule(
            name="g", description="", action=Action.RESET_GPU,
            xids=(119,), min_count=2, window_seconds=100.0, scope=Scope.GPU,
        )
        per_node = AlertRule(
            name="n", description="", action=Action.DRAIN_NODE,
            xids=(119,), min_count=2, window_seconds=100.0, scope=Scope.NODE,
        )
        engine, sink = _engine(per_gpu, per_node)
        engine.observe_onset(_record(0.0, pci="0000:07:00"))
        engine.observe_onset(_record(1.0, pci="0000:46:00"))
        # Two different GPUs: only the node-scoped rule saw both.
        assert [a.rule for a in sink.alerts] == ["n"]


class TestPrecursorRules:
    def test_fires_only_after_precursor_on_same_gpu(self):
        rule = AlertRule(
            name="chain", description="", action=Action.RETIRE_PAGE_AUDIT,
            xids=(63,), after_xid=48, window_seconds=100.0,
        )
        engine, sink = _engine(rule)
        assert engine.observe_onset(_record(0.0, xid=63)) == []  # no DBE yet
        engine.observe_onset(_record(10.0, xid=48))
        engine.observe_onset(_record(11.0, xid=63, pci="0000:46:00"))  # other GPU
        assert sink.alerts == []
        fired = engine.observe_onset(_record(12.0, xid=63))
        assert len(fired) == 1
        assert "following XID 48" in fired[0].summary

    def test_stale_precursor_does_not_count(self):
        rule = AlertRule(
            name="chain", description="", action=Action.RETIRE_PAGE_AUDIT,
            xids=(63,), after_xid=48, window_seconds=50.0,
        )
        engine, sink = _engine(rule)
        engine.observe_onset(_record(0.0, xid=48))
        assert engine.observe_onset(_record(500.0, xid=63)) == []

    def test_code_is_not_its_own_precursor(self):
        rule = AlertRule(
            name="self", description="", action=Action.RESET_GPU,
            xids=(119,), after_xid=119, window_seconds=100.0,
        )
        engine, _ = _engine(rule)
        assert engine.observe_onset(_record(0.0, xid=119)) == []
        assert engine.observe_onset(_record(1.0, xid=119)) != []


class TestAlarmRules:
    def _alarm(self, t=0.0, open_s=700.0, xid=95):
        return PersistenceAlarm(
            node_id="gpua001", pci_bus="0000:07:00", xid=xid,
            start_time=t, open_persistence=open_s, n_raw=9,
        )

    def test_persistence_alarm_fires_rule(self):
        rule = AlertRule(
            name="tail", description="", action=Action.PAGE_SRE, on_alarm=True,
        )
        engine, sink = _engine(rule)
        fired = engine.observe_alarm(self._alarm())
        assert len(fired) == 1
        assert fired[0].details["open_persistence"] == 700.0
        assert sink.alerts == fired

    def test_alarm_rule_can_filter_by_xid(self):
        rule = AlertRule(
            name="tail95", description="", action=Action.PAGE_SRE,
            on_alarm=True, xids=(95,),
        )
        engine, _ = _engine(rule)
        assert engine.observe_alarm(self._alarm(xid=119)) == []
        assert engine.observe_alarm(self._alarm(xid=95)) != []


class TestObserve:
    def test_ingest_results_reach_onset_and_alarm_rules(self):
        onset_rule = AlertRule(
            name="onset", description="", action=Action.REPLACE_GPU,
            xids=(95,), window_seconds=60.0,
        )
        alarm_rule = AlertRule(
            name="tail", description="", action=Action.PAGE_SRE, on_alarm=True,
        )
        engine, sink = _engine(onset_rule, alarm_rule)
        registry = HealthRegistry(alarm_after_seconds=8.0)
        fired = [
            engine.observe(registry.ingest(_record(t, xid=95)))
            for t in (0.0, 4.0, 8.0)
        ]
        assert [[a.rule for a in alerts] for alerts in fired] == [["onset"], [], ["tail"]]
        assert "gpu_risk_score" in sink.alerts[0].details


class TestSinksAndCatalog:
    def test_jsonl_sink_round_trips(self, tmp_path):
        path = tmp_path / "alerts" / "out.jsonl"
        sink = JsonLinesSink(path)
        rule = AlertRule(
            name="r", description="", action=Action.DRAIN_NODE,
            severity="critical", xids=(79,), window_seconds=60.0,
        )
        engine = RuleEngine([rule], sinks=[sink])
        engine.observe_onset(_record(0.0, xid=79))
        sink.close()
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert rows[0]["rule"] == "r"
        assert rows[0]["action"] == "drain_node"
        assert rows[0]["xid"] == 79

    def test_fired_counts_accumulate(self):
        rule = AlertRule(
            name="r", description="", action=Action.DRAIN_NODE,
            xids=(79,), window_seconds=60.0, cooldown_seconds=1.0,
        )
        engine, _ = _engine(rule)
        engine.observe_onset(_record(0.0, xid=79))
        engine.observe_onset(_record(100.0, xid=79))
        assert engine.fired_counts["r"] == 2
        assert engine.total_fired() == 2

    def test_default_catalog_covers_the_papers_guidance(self):
        rules = {r.name: r for r in default_rules()}
        assert rules["xid79-fallen-off-bus"].action is Action.DRAIN_NODE
        assert rules["xid79-fallen-off-bus"].scope is Scope.NODE
        assert rules["xid119-gsp-repeat"].action is Action.RESET_GPU
        assert rules["xid119-gsp-repeat"].min_count == 3
        assert rules["dbe-remap-chain"].after_xid == 48
        assert set(rules["dbe-remap-chain"].xids) == {63, 64}
        assert rules["uncontained-burst"].action is Action.REPLACE_GPU
        assert rules["persistence-tail"].on_alarm

    def test_invalid_rules_rejected(self):
        with pytest.raises(ValueError):
            AlertRule(name="r", description="", action=Action.PAGE_SRE)  # no xids
        with pytest.raises(ValueError):
            AlertRule(
                name="r", description="", action=Action.PAGE_SRE,
                xids=(1,), min_count=0,
            )
        with pytest.raises(ValueError):  # duplicate names
            rule = AlertRule(
                name="r", description="", action=Action.PAGE_SRE, xids=(1,)
            )
            RuleEngine([rule, rule])


class TestEventTimeContract:
    """Replay-grade guarantees: pure event time, regression-safe state."""

    def test_accelerated_delivery_changes_nothing(self):
        # The engine never reads the wall clock, so delivering a
        # 100x-compressed trace (same event times, no wall delay between
        # observes) fires exactly the same alerts.
        rule = AlertRule(
            name="r", description="", action=Action.RESET_GPU,
            xids=(119,), min_count=3, window_seconds=3_600.0,
            cooldown_seconds=600.0,
        )
        onsets = [0.0, 100.0, 200.0, 5_000.0, 5_100.0, 5_200.0]

        def run():
            engine, sink = _engine(rule)
            for t in onsets:
                engine.observe_onset(_record(t))
            return [(a.time, a.rule) for a in sink.alerts]

        assert run() == run() == [(200.0, "r"), (5_200.0, "r")]

    def test_timeline_regression_resets_cooldown(self):
        # A feed restart (re-run emitter, replay seeked back) jumps event
        # time far backward; carrying the old cooldown across would
        # silently suppress the whole new pass.
        rule = AlertRule(
            name="r", description="", action=Action.DRAIN_NODE,
            xids=(79,), window_seconds=60.0, cooldown_seconds=3_600.0,
        )
        engine, sink = _engine(rule)
        engine.observe_onset(_record(100_000.0, xid=79))
        engine.observe_onset(_record(10.0, xid=79))  # new timeline
        assert [a.time for a in sink.alerts] == [100_000.0, 10.0]

    def test_small_jitter_does_not_reset(self):
        # Backward jitter within the rule's memory horizon is ordinary
        # arrival-order noise, not a restart: cooldown still applies.
        rule = AlertRule(
            name="r", description="", action=Action.DRAIN_NODE,
            xids=(79,), window_seconds=60.0, cooldown_seconds=3_600.0,
        )
        engine, sink = _engine(rule)
        engine.observe_onset(_record(10_000.0, xid=79))
        engine.observe_onset(_record(9_990.0, xid=79))  # within cooldown
        assert [a.time for a in sink.alerts] == [10_000.0]

    def test_stale_precursor_from_old_timeline_ignored(self):
        # A precursor recorded before a regression lies in the new
        # timeline's *future*; it must not license a chain alert.
        rule = AlertRule(
            name="chain", description="", action=Action.RETIRE_PAGE_AUDIT,
            xids=(63,), after_xid=48, window_seconds=3_600.0,
        )
        engine, sink = _engine(rule)
        engine.observe_onset(_record(100_000.0, xid=48))
        engine.observe_onset(_record(50.0, xid=63))  # regressed timeline
        assert sink.alerts == []
        engine.observe_onset(_record(60.0, xid=48))
        engine.observe_onset(_record(70.0, xid=63))
        assert [a.time for a in sink.alerts] == [70.0]

    def test_alarm_rule_regression_resets_too(self):
        rule = AlertRule(
            name="tail", description="", action=Action.PAGE_SRE,
            on_alarm=True, cooldown_seconds=3_600.0,
        )
        engine, sink = _engine(rule)

        def alarm(start):
            return PersistenceAlarm(
                node_id="gpua001", pci_bus="0000:07:00", xid=95,
                start_time=start, open_persistence=10.0, n_raw=5,
            )

        engine.observe_alarm(alarm(100_000.0))
        engine.observe_alarm(alarm(20.0))  # restarted feed
        assert len(sink.alerts) == 2
