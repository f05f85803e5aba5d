"""Noise generation and log file writing/reading."""

import gzip
import pickle

import pytest

from repro.core.parsing import parse_line
from repro.faults.events import ErrorEvent
from repro.faults.xid import Xid
from repro.syslog.noise import generate_noise_lines
from repro.syslog.reader import CorruptLogError, iter_log_lines, list_log_files
from repro.syslog.format import render_trace
from repro.syslog.writer import write_node_logs


def _noise(node_ids, window_seconds, seed):
    return [
        line
        for _, lines in generate_noise_lines(node_ids, window_seconds, seed)
        for line in lines
    ]


def _by_node(lines):
    """Lines grouped by their host field, as the writer takes them."""
    grouped = {}
    for line in lines:
        grouped.setdefault(line.split(" ")[1], []).append(line)
    return grouped


class TestNoise:
    def test_noise_never_parses_as_xid(self):
        lines = _noise(["gpua001", "gpub001"], 1000 * 3600.0, 1)
        assert len(lines) > 500
        assert all(parse_line(line) is None for line in lines)

    def test_noise_attributed_to_requested_nodes(self):
        pairs = list(generate_noise_lines(["nodeX", "nodeY"], 50 * 3600.0, 2))
        assert [node for node, _ in pairs] == ["nodeX", "nodeY"]
        for node, lines in pairs:
            assert lines and all(line.split(" ")[1] == node for line in lines)

    def test_deterministic(self):
        a = _noise(["n1"], 3600.0 * 100, 3)
        b = _noise(["n1"], 3600.0 * 100, 3)
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
        paths = write_node_logs(_by_node(lines), tmp_path)
        assert sorted(p.name for p in paths) == ["gpua001.log", "gpub001.log"]
        back = _read_back(tmp_path)
        assert sorted(back) == sorted(lines)

    def test_round_trip_gzip(self, tmp_path):
        lines = list(render_trace(_events(), seed=1))
        paths = write_node_logs(_by_node(lines), tmp_path, compress=True)
        assert all(p.suffix == ".gz" for p in paths)
        back = _read_back(tmp_path)
        assert sorted(back) == sorted(lines)

    def test_lines_sorted_within_node(self, tmp_path):
        lines = list(render_trace(_events(), seed=1))
        write_node_logs(_by_node(reversed(lines)), tmp_path)
        node_lines = list(iter_log_lines(tmp_path / "gpub001.log"))
        assert node_lines == sorted(node_lines)

    def test_node_without_lines_gets_no_file(self, tmp_path):
        paths = write_node_logs({"gpua001": ["a"], "gpua002": []}, tmp_path)
        assert [p.name for p in paths] == ["gpua001.log"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["gpua001.log"]

    def test_file_is_its_lines_newline_terminated(self, tmp_path):
        # Files span several write blocks; each line ends in one newline.
        lines = [f"2022-01-01T00:00:{i % 60:02d}.{i % 1000:03d} n{i}" for i in range(150_000)]
        (path,) = write_node_logs({"n": lines}, tmp_path)
        assert path.read_text(encoding="utf-8") == "".join(f"{line}\n" for line in sorted(lines))

    def test_iter_single_file(self, tmp_path):
        (tmp_path / "x.log").write_text("a\nb\n")
        assert list(iter_log_lines(tmp_path / "x.log")) == ["a", "b"]

    def test_reader_ignores_other_files(self, tmp_path):
        (tmp_path / "a.log").write_text("line\n")
        (tmp_path / "notes.txt").write_text("ignored\n")
        assert _read_back(tmp_path) == ["line"]


class TestCutCompressedLog:
    @pytest.fixture
    def cut(self, tmp_path):
        path = tmp_path / "gpua001.log.gz"
        with gzip.open(path, "wt") as handle:
            handle.write("".join(f"line {i}\n" for i in range(5_000)))
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        return path

    def test_raises_one_typed_error_naming_the_file(self, cut):
        read = []
        with pytest.raises(CorruptLogError, match="gpua001.log.gz") as caught:
            for line in iter_log_lines(cut):
                read.append(line)
        assert 0 < len(read) < 5_000
        assert read == [f"line {i}" for i in range(len(read))]
        assert caught.value.path == str(cut)

    def test_the_error_pickles_whole(self, cut):
        with pytest.raises(CorruptLogError) as caught:
            list(iter_log_lines(cut))
        copy = pickle.loads(pickle.dumps(caught.value))
        assert (type(copy), str(copy)) == (CorruptLogError, str(caught.value))
