"""End-to-end fleet service: injector -> live emitter -> log files ->
registry -> rules -> metrics endpoint.

One demo-cluster replay is shared by the whole module (the expensive
part); every test then asserts on the resulting service state.
"""

import urllib.request

import pytest

from repro.fleet import (
    Action,
    FleetHealthService,
    FleetServiceConfig,
    LiveLogEmitter,
    MemorySink,
)
from repro.fleet.demo import demo_counts, demo_trace

SEED = 11


@pytest.fixture(scope="module")
def live_session(tmp_path_factory):
    """Replay the demo trace into log files while the service follows."""
    logs = tmp_path_factory.mktemp("fleet") / "logs"
    logs.mkdir()
    trace = demo_trace(seed=SEED)
    sink = MemorySink()
    service = FleetHealthService(
        FleetServiceConfig(logs_dir=logs, alarm_after_seconds=600.0),
        sinks=[sink],
    )
    service.start()
    emitter = LiveLogEmitter.from_trace(trace, logs, seed=SEED)
    emitter.start()
    emitter.join(120.0)
    assert service.wait_idle(timeout=60.0), "service never went idle"
    scrape = urllib.request.urlopen(service.metrics_url, timeout=10).read().decode()
    summary = service.summary()
    service.stop()
    return {
        "trace": trace,
        "sink": sink,
        "summary": summary,
        "scrape": scrape,
        "emitter": emitter,
    }


class TestLiveIngestion:
    def test_every_emitted_line_was_ingested(self, live_session):
        assert live_session["summary"]["records_ingested"] == (
            live_session["emitter"].lines_written
        )
        assert live_session["summary"]["records_ingested"] > 0

    def test_onsets_match_the_injected_ground_truth(self, live_session):
        """Each injected fault event becomes exactly one coalesced onset —
        the live pipeline neither drops nor double-counts despite the
        duplicate-line rendering and reading files while they grow."""
        assert live_session["summary"]["onsets_by_xid"] == demo_counts(
            live_session["trace"]
        )


class TestOperatorAlerts:
    def test_xid79_fires_the_drain_node_alert(self, live_session):
        drains = [a for a in live_session["sink"].alerts if a.action is Action.DRAIN_NODE]
        assert drains, "no drain-node alert for a fallen-off-the-bus GPU"
        assert all(a.xid == 79 for a in drains)
        assert all(a.severity == "critical" for a in drains)
        # One drain per affected node, not an alert storm.
        affected = {a.node_id for a in drains}
        assert len(drains) == len(affected)

    def test_every_default_rule_fired(self, live_session):
        by_rule = live_session["summary"]["alerts_by_rule"]
        assert set(by_rule) == {
            "xid79-fallen-off-bus",
            "xid119-gsp-repeat",
            "dbe-remap-chain",
            "uncontained-burst",
            "persistence-tail",
        }

    def test_burst_alert_names_the_offender(self, live_session):
        replacements = [
            a for a in live_session["sink"].alerts if a.action is Action.REPLACE_GPU
        ]
        assert replacements
        # The demo profile concentrates uncontained errors on 2 offenders.
        offenders = {(a.node_id, a.pci_bus) for a in replacements}
        assert len(offenders) <= 3


class TestMetricsEndpoint:
    def test_scrape_reflects_the_session(self, live_session):
        scrape = live_session["scrape"]
        summary = live_session["summary"]
        assert (
            f"repro_fleet_records_ingested_total {summary['records_ingested']}"
            in scrape
        )
        assert 'repro_fleet_error_onsets_total{abbrev="Fallen Off Bus",xid="79"}' in scrape
        assert (
            'repro_fleet_alerts_total{action="drain_node",'
            'rule="xid79-fallen-off-bus"}' in scrape
        )
        assert "repro_fleet_uptime_seconds" in scrape
