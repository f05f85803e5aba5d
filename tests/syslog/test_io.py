"""Noise generation and log file writing/reading."""

import pytest

from repro.core.parsing import parse_line
from repro.faults.events import ErrorEvent
from repro.faults.xid import Xid
from repro.syslog.noise import NoiseConfig, generate_noise_lines
from repro.syslog.reader import iter_log_lines, list_log_files
from repro.syslog.format import render_trace
from repro.syslog.writer import write_node_logs


class TestNoise:
    def test_noise_never_parses_as_xid(self):
        lines = list(
            generate_noise_lines(["gpua001", "gpub001"], 500 * 3600.0,
                                 NoiseConfig(lines_per_node_hour=1.0, seed=1))
        )
        assert len(lines) > 500
        assert all(parse_line(line) is None for line in lines)

    def test_noise_volume_scales(self):
        few = list(generate_noise_lines(["n1"], 100 * 3600.0,
                                        NoiseConfig(lines_per_node_hour=0.5, seed=1)))
        many = list(generate_noise_lines(["n1"], 100 * 3600.0,
                                         NoiseConfig(lines_per_node_hour=5.0, seed=1)))
        assert len(many) > len(few) * 5

    def test_noise_attributed_to_requested_nodes(self):
        lines = list(generate_noise_lines(["nodeX"], 50 * 3600.0, NoiseConfig(seed=2)))
        assert all(line.split(" ")[1] == "nodeX" for line in lines)

    def test_deterministic(self):
        a = list(generate_noise_lines(["n1"], 3600.0 * 100, NoiseConfig(seed=3)))
        b = list(generate_noise_lines(["n1"], 3600.0 * 100, NoiseConfig(seed=3)))
        assert a == b


def _events():
    return [
        ErrorEvent(time=10.0, node_id="gpua001", pci_bus="0000:07:00", xid=Xid.MMU),
        ErrorEvent(time=20.0, node_id="gpub001", pci_bus="0000:46:00", xid=Xid.GSP,
                   persistence=12.0),
    ]


def _read_back(directory):
    return [line for path in list_log_files(directory) for line in iter_log_lines(path)]


class TestWriterReader:
    def test_round_trip_plain(self, tmp_path):
        lines = list(render_trace(_events(), seed=1))
        paths = write_node_logs(lines, tmp_path)
        assert sorted(p.name for p in paths) == ["gpua001.log", "gpub001.log"]
        back = _read_back(tmp_path)
        assert sorted(back) == sorted(lines)

    def test_round_trip_gzip(self, tmp_path):
        lines = list(render_trace(_events(), seed=1))
        paths = write_node_logs(lines, tmp_path, compress=True)
        assert all(p.suffix == ".gz" for p in paths)
        back = _read_back(tmp_path)
        assert sorted(back) == sorted(lines)

    def test_lines_sorted_within_node(self, tmp_path):
        lines = list(render_trace(_events(), seed=1))
        write_node_logs(reversed(lines), tmp_path)
        node_lines = list(iter_log_lines(tmp_path / "gpub001.log"))
        assert node_lines == sorted(node_lines)

    def test_iter_single_file(self, tmp_path):
        (tmp_path / "x.log").write_text("a\nb\n")
        assert list(iter_log_lines(tmp_path / "x.log")) == ["a", "b"]

    def test_reader_ignores_other_files(self, tmp_path):
        (tmp_path / "a.log").write_text("line\n")
        (tmp_path / "notes.txt").write_text("ignored\n")
        assert _read_back(tmp_path) == ["line"]
