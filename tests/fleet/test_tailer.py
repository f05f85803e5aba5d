"""Live-log tailers: incremental polling, backpressure, merged streams."""

import os
import threading
import time

import pytest

from repro.fleet import tailer as tailer_module
from repro.fleet.tailer import DirectoryTailer, LogTailer
from repro.util.timeutil import format_timestamp


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
        assert tailer.poll_records() == []  # nothing new

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
        assert tailer.poll_records() == []
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
        assert tailer.poll_records() == []
        with open(path, "a") as handle:
            handle.write(_line(1.0) + "\n")
        assert [r.time for r in tailer.poll_records()] == [1.0]

    def test_missing_file_yields_nothing(self, tmp_path):
        tailer = LogTailer(tmp_path / "absent.log")
        assert tailer.poll_lines() == []


@pytest.fixture()
def fast_poll(monkeypatch):
    monkeypatch.setattr(tailer_module, "POLL_INTERVAL", 0.01)


class TestDirectoryTailer:
    def test_requires_start_before_consuming(self, tmp_path):
        tailer = DirectoryTailer(tmp_path)
        with pytest.raises(RuntimeError):
            next(tailer.records())

    def test_collects_existing_and_appended_lines(self, tmp_path, fast_poll):
        (tmp_path / "gpua001.log").write_text(
            "".join(_line(t, node="gpua001") + "\n" for t in (0.0, 5.0))
        )
        (tmp_path / "gpub001.log").write_text(_line(2.0, node="gpub001") + "\n")
        tailer = DirectoryTailer(tmp_path).start()

        def _append_later():
            time.sleep(0.1)
            with open(tmp_path / "gpua001.log", "a") as handle:
                handle.write(_line(9.0, node="gpua001") + "\n")
            time.sleep(0.1)
            tailer.stop()

        threading.Thread(target=_append_later, daemon=True).start()
        records = list(tailer.records())
        tailer.join(5.0)
        assert len(records) == 4
        # Per-GPU (= per-file) time order survives the merge.
        gpua = [r.time for r in records if r.node_id == "gpua001"]
        assert gpua == sorted(gpua) == [0.0, 5.0, 9.0]
        assert tailer.stats().records_parsed == 4

    def test_new_files_are_discovered_on_the_fly(self, tmp_path, fast_poll):
        tailer = DirectoryTailer(tmp_path).start()

        def _create_later():
            time.sleep(0.05)
            (tmp_path / "late.log").write_text(_line(1.0, node="late") + "\n")
            time.sleep(0.1)
            tailer.stop()

        threading.Thread(target=_create_later, daemon=True).start()
        records = list(tailer.records())
        assert [r.node_id for r in records] == ["late"]

    def test_bounded_queue_backpressure_loses_nothing(
        self, tmp_path, fast_poll, monkeypatch
    ):
        n = 500
        (tmp_path / "gpua001.log").write_text(
            "".join(_line(float(t)) + "\n" for t in range(n))
        )
        # Tiny queue: workers must block on put while the consumer drains.
        monkeypatch.setattr(tailer_module, "QUEUE_SIZE", 8)
        tailer = DirectoryTailer(tmp_path)
        assert tailer.queue.maxsize == 8
        tailer.start()
        time.sleep(0.05)
        assert tailer.queue_depth <= 8  # the memory bound, mid-flight
        tailer.stop()
        records = list(tailer.records())
        assert len(records) == n
        assert [r.time for r in records] == [float(t) for t in range(n)]
