"""Command-line interface."""

import gzip

import pytest

from repro.cli import main
from repro.core.coalesce import coalesce_errors
from repro.pipeline import FileSetSource, extract_records


class TestCli:
    def test_synthesize_then_study(self, tmp_path, capsys):
        out_dir = tmp_path / "data"
        assert main(["synthesize", str(out_dir), "--scale", "0.004", "--seed", "3"]) == 0
        captured = capsys.readouterr()
        assert "slurm.jsonl" in captured.out
        assert (out_dir / "slurm.jsonl").exists()
        assert any((out_dir / "logs").iterdir())

    def test_study_in_memory(self, capsys):
        assert main(["study", "--scale", "0.004", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "Figure 5" in out
        assert "Section 5.5" in out

    def test_study_dataset_with_workers(self, tmp_path, capsys):
        out_dir = tmp_path / "data"
        main(["synthesize", str(out_dir), "--scale", "0.004", "--seed", "3"])
        capsys.readouterr()
        assert main(["study", "--dataset", str(out_dir), "--workers", "2",
                     "--scale", "0.004"]) == 0
        parallel = capsys.readouterr().out
        assert main(["study", "--dataset", str(out_dir), "--workers", "1",
                     "--scale", "0.004"]) == 0
        serial = capsys.readouterr().out
        assert "Table 1" in parallel
        assert parallel == serial  # worker count never changes the report

    def test_study_rejects_nonpositive_workers(self, capsys):
        assert main(["study", "--scale", "0.004", "--workers", "0"]) == 2
        assert "workers" in capsys.readouterr().out

    def test_overprovision(self, capsys):
        assert main(["overprovision", "--nodes", "200", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "Overprovision" in out

    def test_figures(self, tmp_path, capsys):
        assert main(["figures", "--scale", "0.004", "--seed", "3",
                     "--output", str(tmp_path / "figs")]) == 0
        svgs = list((tmp_path / "figs").glob("*.svg"))
        assert len(svgs) >= 5

    def test_monitor(self, tmp_path, capsys):
        out_dir = tmp_path / "data"
        main(["synthesize", str(out_dir), "--scale", "0.004", "--seed", "3"])
        capsys.readouterr()
        assert main(["monitor", str(out_dir / "logs"), "--alarm-minutes", "10"]) == 0
        lines = capsys.readouterr().out.splitlines()
        n_alarms = sum(line.startswith("ALARM ") for line in lines)
        assert n_alarms >= 1  # the offender GPU trips the watchdog
        n_errors = len(coalesce_errors(
            extract_records(FileSetSource(out_dir / "logs"))
        ))
        assert lines[-1] == (
            f"stream complete: {n_errors:,} coalesced errors, "
            f"{n_alarms} persistence alarms"
        )

    def test_serve_simulate(self, tmp_path, capsys):
        logs = tmp_path / "logs"
        alerts = tmp_path / "alerts.jsonl"
        assert main([
            "serve", str(logs), "--simulate", "--seed", "11",
            "--alarm-minutes", "10", "--alerts-jsonl", str(alerts),
        ]) == 0
        out = capsys.readouterr().out
        assert "metrics: http://" in out
        assert "ALERT" in out
        assert "drain_node" in out  # the XID-79 rule fired
        assert "session summary:" in out
        assert "repro_fleet_records_ingested_total" in out
        assert alerts.exists() and alerts.read_text().strip()

    def test_serve_rejects_missing_directory(self, tmp_path, capsys):
        assert main(["serve", str(tmp_path / "absent")]) == 2
        assert "not a directory" in capsys.readouterr().out

    def test_serve_fails_when_its_ingest_thread_dies(
        self, tmp_path, capsys, monkeypatch
    ):
        from repro.fleet import StdoutSink

        def _full_disk(self, alert):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(StdoutSink, "emit", _full_disk)
        logs = tmp_path / "logs"
        logs.mkdir()
        (logs / "gpub042.log").write_text(
            "2022-03-14T02:11:09.113 gpub042 kernel: NVRM: Xid "
            "(PCI:0000:C7:00): 79, pid=8821, GPU has fallen off the bus\n"
        )
        assert main(["serve", str(logs), "--duration", "0"]) == 2
        assert capsys.readouterr().out.splitlines()[-1] == (
            "error: fleet ingest thread died (1 records ingested): "
            "OSError: [Errno 28] No space left on device"
        )

    def test_experiment_listing(self, capsys):
        assert main(["experiment"]) == 0
        out = capsys.readouterr().out
        assert "table1" in out and "sec5.4" in out

    def test_experiment_run(self, capsys):
        assert main(["experiment", "fig5", "--scale", "0.004", "--seed", "3"]) == 0
        assert "GSP" in capsys.readouterr().out

    def test_simulate_list_scenarios(self, capsys):
        assert main(["simulate", "--list-scenarios"]) == 0
        out = capsys.readouterr().out
        assert "a100-512" in out and "h100-256" in out
        assert "no-xid79" in out

    def test_simulate_sweep_table(self, capsys):
        assert main([
            "simulate", "--scenario", "a100-256", "--policy", "spare:2",
            "--replicas", "2", "--workers", "2", "--seed", "13",
            "--gpus", "32", "--useful-hours", "12",
        ]) == 0
        out = capsys.readouterr().out
        assert "completed fraction" in out
        assert "goodput" in out and "ettr_hours" in out

    def test_simulate_json_and_cache(self, tmp_path, capsys):
        import json

        args = [
            "simulate", "--scenario", "a100-256", "--policy", "ckpt",
            "--replicas", "2", "--seed", "13", "--gpus", "32",
            "--useful-hours", "12", "--cache-dir", str(tmp_path), "--format", "json",
        ]
        assert main(args) == 0
        first = json.loads(capsys.readouterr().out)
        assert first["aggregate"]["replicas"] == 2
        assert first["n_from_cache"] == 0
        assert main(args) == 0
        second = json.loads(capsys.readouterr().out)
        assert second["n_from_cache"] == 2
        assert second["aggregate"] == first["aggregate"]

    def test_simulate_rejects_unknown_scenario(self, capsys):
        assert main(["simulate", "--scenario", "z9000"]) == 2
        assert "unknown scenario" in capsys.readouterr().out

    def test_simulate_rejects_bad_policy(self, capsys):
        assert main(["simulate", "--policy", "teleport"]) == 2
        assert "unknown policy" in capsys.readouterr().out

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])


class TestUndecodableBytes:
    """A byte that is not UTF-8 costs its line's text, not the run."""

    XID = (b"2022-03-14T02:11:09.113 gpub042 kernel: NVRM: Xid "
           b"(PCI:0000:C7:00): 79, pid=8821, GPU has fallen off the bus")

    def _logs(self, tmp_path, name):
        logs = tmp_path / "logs"
        logs.mkdir()
        data = b"".join([
            b"2022-03-14T02:11:08.000 gpub042 systemd[1]: Started \xff session\n",
            self.XID + b"\n",
            self.XID.replace(b"fallen off", b"fallen \xff off") + b"\n",
        ])
        (logs / name).write_bytes(gzip.compress(data) if name.endswith(".gz") else data)
        return logs

    def test_monitor(self, tmp_path, capsys):
        logs = self._logs(tmp_path, "gpub042.log")
        assert main(["monitor", str(logs)]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == (
            "stream complete: 2 coalesced errors, 0 persistence alarms"
        )

    def test_store_build(self, tmp_path, capsys):
        logs = self._logs(tmp_path, "gpub042.log")
        assert main(["store", "build", str(logs), str(tmp_path / "events")]) == 0
        assert "ingested 2 records" in capsys.readouterr().out

    def test_serve_over_gzip(self, tmp_path, capsys):
        logs = self._logs(tmp_path, "gpub042.log.gz")
        assert main(["serve", str(logs), "--duration", "0"]) == 0
        assert "ALERT" in capsys.readouterr().out

    def test_xid_line_keeps_its_record_as_in_the_tailer(self, tmp_path):
        from repro.fleet.tailer import LogTailer

        logs = self._logs(tmp_path, "gpub042.log")
        tailed = LogTailer(logs / "gpub042.log").poll_records()
        assert extract_records(FileSetSource(logs)) == tailed
        assert [r.message for r in tailed] == [
            "GPU has fallen off the bus", "GPU has fallen \ufffd off the bus",
        ]


class TestStructuredOutput:
    def test_experiment_json_is_schema_valid(self, capsys):
        import json

        from repro.results import ExperimentResult, validate_result_dict

        assert main(["experiment", "fig5", "--scale", "0.004", "--seed", "3",
                     "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert validate_result_dict(payload) == []
        result = ExperimentResult.from_dict(payload)
        assert result.experiment_id == "fig5"
        assert result.manifest.seed == 3
        assert result.manifest.scale == 0.004

    def test_experiment_output_dir_writes_artifacts(self, tmp_path, capsys):
        import json

        assert main(["experiment", "table1", "--scale", "0.004", "--seed", "3",
                     "--output-dir", str(tmp_path)]) == 0
        directory = tmp_path / "table1"
        result = json.loads((directory / "result.json").read_text())
        manifest = json.loads((directory / "manifest.json").read_text())
        assert result["experiment_id"] == "table1"
        assert manifest["seed"] == 3
        assert "coalesce" in manifest["config_hashes"]
        assert (directory / "result.svg").read_text().startswith("<svg")

    def test_study_json_covers_the_sequence(self, capsys):
        import json

        assert main(["study", "--scale", "0.004", "--seed", "3",
                     "--format", "json"]) == 0
        payloads = json.loads(capsys.readouterr().out)
        identifiers = [p["experiment_id"] for p in payloads]
        assert identifiers[0] == "table1" and "fig9" in identifiers

    def test_simulate_output_dir_writes_manifest(self, tmp_path, capsys):
        import json

        assert main(["simulate", "--scenario", "a100-256", "--policy", "none",
                     "--replicas", "2", "--seed", "5",
                     "--output-dir", str(tmp_path)]) == 0
        (directory,) = [p for p in tmp_path.iterdir() if p.is_dir()]
        manifest = json.loads((directory / "manifest.json").read_text())
        assert manifest["seed"] == 5
        assert manifest["config_hashes"]["sweep"]


class TestVerify:
    def test_verify_passes_with_relaxed_bands(self, capsys):
        assert main(["verify", "table1", "fig9", "--scale", "0.02",
                     "--seed", "1234", "--tolerance-scale", "4"]) == 0
        out = capsys.readouterr().out
        assert "Paper-fidelity verification" in out
        assert "0 failed" in out

    def test_verify_fails_on_injected_miscalibration(self, capsys):
        # a near-zero band makes the (deterministic) small-scale drift from
        # the paper's exact values count as a miscalibration
        assert main(["verify", "table1", "--scale", "0.02", "--seed", "1234",
                     "--tolerance-scale", "1e-6"]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out

    def test_verify_rejects_unknown_ids(self, capsys):
        assert main(["verify", "nope", "--scale", "0.02"]) == 2
        assert "unknown experiment ids" in capsys.readouterr().out


class TestOneJobRepresentation:
    def test_study_builds_no_job_rows(self, tmp_path, capsys, monkeypatch):
        """Jobs stay columns from the scheduler to Tables 2-3 and Figure 9:
        neither study path constructs a JobRecord row."""
        from repro.slurm import JobRecord, SlurmDatabase

        out_dir = tmp_path / "data"
        assert main(["synthesize", str(out_dir), "--scale", "0.004", "--seed", "3"]) == 0
        made = []
        init = JobRecord.__init__

        def counting_init(self, *args, **kwargs):
            made.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(JobRecord, "__init__", counting_init)
        assert main(["study", "--dataset", str(out_dir), "--scale", "0.004",
                     "--workers", "1", "--jobs", "1"]) == 0
        assert main(["study", "--scale", "0.004", "--seed", "3"]) == 0
        assert "Table 2" in capsys.readouterr().out
        assert made == []
        SlurmDatabase.load(out_dir / "slurm.jsonl").jobs[0]  # the row view counts
        assert made == [1]
