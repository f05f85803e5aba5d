"""Prometheus text-format rendering and the stdlib HTTP endpoint."""

import urllib.error
import urllib.request

import pytest

from repro.core.parsing import RawXidRecord
from repro.fleet.exposition import MetricsServer, render_prometheus
from repro.fleet.registry import HealthRegistry
from repro.fleet.rules import Action, AlertRule, MemorySink, RuleEngine
from repro.fleet.tailer import DirectoryTailer


def _record(t, node="gpua001", pci="0000:07:00", xid=95, msg="m"):
    return RawXidRecord(
        time=float(t), node_id=node, pci_bus=pci, xid=xid, message=msg
    )


def _populated_registry():
    registry = HealthRegistry()
    registry.ingest(_record(0.0))
    registry.ingest(_record(100.0))
    registry.ingest(_record(50.0, pci="0000:46:00", xid=119))
    return registry


def _render(registry, engine=None, extra_gauges=None):
    return render_prometheus(
        registry,
        engine or RuleEngine([]),
        DirectoryTailer("unpolled"),
        extra_gauges or {},
        {"fleet.records_ingested": 3.0},
    )


class TestRenderPrometheus:
    def test_core_series_present(self):
        text = _render(_populated_registry())
        assert "# TYPE repro_fleet_tracked_gpus gauge" in text
        assert "repro_fleet_tracked_gpus 2" in text
        assert "repro_fleet_records_ingested_total 3" in text
        assert 'repro_fleet_error_onsets_total{abbrev="Uncontained ECC",xid="95"} 2' in text
        assert 'xid="119"' in text
        assert "repro_fleet_open_runs 2" in text
        assert text.endswith("\n")

    def test_engine_and_extra_gauges(self):
        rule = AlertRule(
            name="r", description="", action=Action.DRAIN_NODE,
            xids=(95,), window_seconds=60.0,
        )
        engine = RuleEngine([rule], sinks=[MemorySink()])
        engine.observe_onset(_record(0.0))
        text = _render(
            _populated_registry(), engine, extra_gauges={"repro_fleet_uptime_seconds": 1.5}
        )
        assert 'repro_fleet_alerts_total{action="drain_node",rule="r"} 1' in text
        assert "repro_fleet_uptime_seconds 1.5" in text

    def test_risk_and_rate_series_are_labelled_per_gpu(self):
        text = _render(_populated_registry())
        assert 'repro_fleet_gpu_risk_score{node="gpua001",pci_bus="0000:07:00"}' in text
        assert 'repro_fleet_gpu_error_rate_per_hour{node="gpua001"' in text

    def test_label_values_are_escaped(self):
        registry = HealthRegistry()
        registry.ingest(_record(0.0, node='we"ird\\node'))
        text = _render(registry)
        assert 'node="we\\"ird\\\\node"' in text


class TestMetricsServer:
    @pytest.fixture()
    def server(self):
        registry = _populated_registry()
        server = MetricsServer(lambda: _render(registry))
        server.start()
        yield server
        server.stop()

    def test_scrape_and_health(self, server):
        with urllib.request.urlopen(server.url, timeout=5) as response:
            assert response.status == 200
            assert "text/plain" in response.headers["Content-Type"]
            body = response.read().decode()
        assert "repro_fleet_tracked_gpus 2" in body

        health_url = server.url.replace("/metrics", "/healthz")
        with urllib.request.urlopen(health_url, timeout=5) as response:
            assert response.read() == b"ok\n"

    def test_unknown_path_is_404(self, server):
        bad = server.url.replace("/metrics", "/nope")
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(bad, timeout=5)
        err.value.close()
        assert err.value.code == 404

    def test_provider_failure_becomes_500(self):
        def _boom():
            raise RuntimeError("scrape exploded")

        server = MetricsServer(_boom)
        server.start()
        try:
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(server.url, timeout=5)
            err.value.close()
            assert err.value.code == 500
        finally:
            server.stop()
