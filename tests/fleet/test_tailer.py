"""Live-log tailers: incremental polling, byte-budgeted passes, discovery."""

import gzip
import os
from unittest import mock

from repro.core.parsing import parse_line
from repro.fleet import tailer as tailer_module
from repro.fleet.tailer import DirectoryTailer, LogTailer
from repro.pipeline import sources
from repro.pipeline.sources import FileShard
from repro.util.timeutil import format_timestamp


def _rows(batches):
    """The records of a pass's batches, in order."""
    return [record for batch in batches for record in batch]


def _line(t, node="gpua001", pci="0000:07:00", xid=95, msg="Uncontained ECC"):
    return (
        f"{format_timestamp(float(t))} {node} kernel: NVRM: Xid "
        f"(PCI:{pci}): {xid}, pid=1234, {msg}"
    )


class TestLogTailer:
    def test_polls_only_new_complete_lines(self, tmp_path):
        path = tmp_path / "node.log"
        path.write_text(_line(0.0) + "\n")
        tailer = LogTailer(path)
        assert len(tailer.poll_records()) == 1
        assert len(tailer.poll_records()) == 0  # nothing new

        with open(path, "a") as handle:
            handle.write(_line(5.0) + "\n" + _line(10.0)[:30])  # partial tail
        records = tailer.poll_records()
        assert [r.time for r in records] == [5.0]

        with open(path, "a") as handle:  # writer completes the line
            handle.write(_line(10.0)[30:] + "\n")
        assert [r.time for r in tailer.poll_records()] == [10.0]

    def test_non_xid_lines_are_skipped(self, tmp_path):
        path = tmp_path / "node.log"
        path.write_text("2022-01-01T00:00:00.000 gpua001 kernel: boring\n")
        tailer = LogTailer(path)
        assert len(tailer.poll_records()) == 0
        assert tailer.stats.lines_seen == 1

    def test_truncation_resets_like_tail_dash_f(self, tmp_path):
        path = tmp_path / "node.log"
        path.write_text(_line(0.0) + "\n" + _line(1.0) + "\n")
        tailer = LogTailer(path)
        assert len(tailer.poll_records()) == 2
        path.write_text(_line(2.0) + "\n")  # rotated: smaller file
        assert [r.time for r in tailer.poll_records()] == [2.0]

    def test_rotation_to_larger_replacement_reopens(self, tmp_path):
        path = tmp_path / "node.log"
        path.write_text(_line(0.0) + "\n")
        tailer = LogTailer(path)
        assert len(tailer.poll_records()) == 1
        # Rotate: the path now names a brand-new file that is already
        # *larger* than the old read offset.  A size-only heuristic would
        # resume at the stale offset and stream garbage from the middle
        # of the replacement; the inode check must reopen from the top.
        os.replace(path, tmp_path / "node.log.1")
        replacement = tmp_path / "node.log.new"
        replacement.write_text(
            "".join(_line(t, xid=31) + "\n" for t in (10.0, 11.0, 12.0))
        )
        os.replace(replacement, path)
        records = tailer.poll_records()
        assert [r.time for r in records] == [10.0, 11.0, 12.0]
        assert all(r.xid == 31 for r in records)
        # And the tailer keeps following the new file afterwards.
        with open(path, "a") as handle:
            handle.write(_line(13.0, xid=31) + "\n")
        assert [r.time for r in tailer.poll_records()] == [13.0]

    def test_from_start_false_skips_existing_content(self, tmp_path):
        path = tmp_path / "node.log"
        path.write_text(_line(0.0) + "\n")
        tailer = LogTailer(path, from_start=False)
        assert len(tailer.poll_records()) == 0
        with open(path, "a") as handle:
            handle.write(_line(1.0) + "\n")
        assert [r.time for r in tailer.poll_records()] == [1.0]

    def test_missing_file_yields_nothing(self, tmp_path):
        tailer = LogTailer(tmp_path / "absent.log")
        assert tailer.poll_lines() == []


class TestDirectoryTailer:
    def test_collects_existing_and_appended_lines(self, tmp_path):
        (tmp_path / "gpua001.log").write_text(
            "".join(_line(t, node="gpua001") + "\n" for t in (0.0, 5.0))
        )
        (tmp_path / "gpub001.log").write_text(_line(2.0, node="gpub001") + "\n")
        tailer = DirectoryTailer(tmp_path)
        records = _rows(tailer.poll())
        # A pass walks the files in name order.
        assert [(r.node_id, r.time) for r in records] == [
            ("gpua001", 0.0), ("gpua001", 5.0), ("gpub001", 2.0),
        ]
        with open(tmp_path / "gpua001.log", "a") as handle:
            handle.write(_line(9.0, node="gpua001") + "\n")
        assert [r.time for r in _rows(tailer.poll())] == [9.0]
        assert _rows(tailer.poll()) == [] and tailer.idle
        assert tailer.stats().records_parsed == 4

    def test_new_files_are_discovered_on_the_fly(self, tmp_path):
        tailer = DirectoryTailer(tmp_path)
        assert _rows(tailer.poll()) == []
        (tmp_path / "late.log").write_text(_line(1.0, node="late") + "\n")
        assert [r.node_id for r in _rows(tailer.poll())] == ["late"]

    def test_a_pass_reads_within_the_byte_budget(self, tmp_path, monkeypatch):
        lines = [_line(float(t)) for t in range(500)]
        (tmp_path / "gpua001.log").write_text("".join(l + "\n" for l in lines))
        budget = 1_000
        monkeypatch.setattr(tailer_module, "POLL_BYTES", budget)
        tailer = DirectoryTailer(tmp_path)
        longest = max(len(l) + 1 for l in lines)
        seen, passes, read = [], 0, 0
        while True:
            records = _rows(tailer.poll())
            if tailer.idle:
                break
            passes += 1
            assert tailer.stats().bytes_read - read <= budget
            read = tailer.stats().bytes_read
            # The complete lines of one budget, plus the partial line the
            # previous pass left buffered.
            assert sum(len(_line(r.time)) + 1 for r in records) <= budget + longest
            seen += records
        total = sum(len(l) + 1 for l in lines)
        assert read == total and passes >= total // budget
        assert [r.time for r in seen] == [float(t) for t in range(500)]

    def test_a_pass_that_reads_only_noise_is_not_idle(self, tmp_path, monkeypatch):
        monkeypatch.setattr(tailer_module, "POLL_BYTES", 1_000)
        noise = "2022-01-01T00:00:00.000 gpua001 kernel: boring\n" * 100
        (tmp_path / "gpua001.log").write_text(noise + _line(1.0) + "\n")
        tailer = DirectoryTailer(tmp_path)
        assert _rows(tailer.poll()) == [] and not tailer.idle

    def test_warm_start_reads_files_found_later_from_byte_zero(self, tmp_path):
        (tmp_path / "gpua001.log").write_text(_line(0.0, node="gpua001") + "\n")
        tailer = DirectoryTailer(tmp_path, from_start=False)
        assert _rows(tailer.poll()) == []
        (tmp_path / "gpua002.log").write_text(
            "".join(_line(t, node="gpua002") + "\n" for t in (1.0, 2.0))
        )
        with open(tmp_path / "gpua001.log", "a") as handle:
            handle.write(_line(3.0, node="gpua001") + "\n")
        assert [(r.node_id, r.time) for r in _rows(tailer.poll())] == [
            ("gpua001", 3.0), ("gpua002", 1.0), ("gpua002", 2.0),
        ]

    def test_compressed_backlog_is_read_once(self, tmp_path):
        with gzip.open(tmp_path / "gpua001.log.gz", "wt") as handle:
            handle.write("".join(_line(t) + "\n" for t in (0.0, 1.0)))
        tailer = DirectoryTailer(tmp_path)
        assert [r.time for r in _rows(tailer.poll())] == [0.0, 1.0]
        assert _rows(tailer.poll()) == []
        # Present at a warm start: already read in an earlier life.
        assert _rows(DirectoryTailer(tmp_path, from_start=False).poll()) == []

    def test_a_cut_short_backlog_keeps_what_was_read(self, tmp_path):
        path = tmp_path / "gpua001.log.gz"
        with gzip.open(path, "wt") as handle:
            handle.write("".join(_line(float(t)) + "\n" for t in range(2_000)))
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        times = [r.time for r in _rows(DirectoryTailer(tmp_path).poll())]
        assert 0 < len(times) < 2_000
        assert times == [float(t) for t in range(len(times))]

    def test_a_pass_yields_one_batch_per_file_that_gained_records(self, tmp_path):
        for node in ("gpua001", "gpua002", "gpua003"):
            (tmp_path / f"{node}.log").write_text(
                "".join(_line(t, node=node) + "\n" for t in (0.0, 1.0, 2.0))
            )
        (tmp_path / "gpua004.log").write_text("2022-01-01T00:00:00.000 x kernel: boring\n")
        batches = list(DirectoryTailer(tmp_path).poll())
        assert [(b.node_dict, len(b)) for b in batches] == [
            (["gpua001"], 3), (["gpua002"], 3), (["gpua003"], 3),
        ]

    def test_backlog_is_parsed_in_chunks_as_a_file_shard_is(self, tmp_path):
        path = tmp_path / "gpua001.log.gz"
        lines = [_line(float(t)) if t % 3 else "2022-01-01T00:00:00.000 x y" for t in range(50)]
        with gzip.open(path, "wt") as handle:
            handle.write("".join(line + "\n" for line in lines))
        tailer = LogTailer(path)
        with mock.patch.object(sources, "CHUNK_LINES", 7):
            batches = list(tailer.backlog())
            assert [len(b) for b in batches] == [len(b) for b in FileShard(path).chunks()]
        assert len(batches) == -(-len(lines) // 7)
        assert _rows(batches) == [r for r in map(parse_line, lines) if r is not None]
        assert (tailer.stats.lines_seen, tailer.stats.records_parsed) == (50, 33)

    def test_a_cut_backlog_keeps_every_record_before_the_cut(self, tmp_path):
        path = tmp_path / "gpua001.log.gz"
        with gzip.open(path, "wt") as handle:
            handle.write("".join(_line(float(t)) + "\n" for t in range(2_000)))
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        readable = []
        try:
            with gzip.open(path, "rt") as handle:
                for line in handle:
                    readable.append(line.rstrip("\n"))
        except EOFError:
            pass
        with mock.patch.object(sources, "CHUNK_LINES", 64):  # cut mid-chunk
            times = [r.time for r in _rows(LogTailer(path).backlog())]
        assert times == [parse_line(line).time for line in readable]
        assert 0 < len(times) < 2_000
