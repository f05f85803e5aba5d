"""Sources: shard exposure and record extraction."""

import gzip

from repro.core.parsing import RawXidRecord, XidBatch
from repro.pipeline.extract import extract_records
from repro.pipeline.sources import FileSetSource, LinesSource, RecordsSource

LINE = (
    "2022-03-14T02:11:09.113 gpub042 kernel: NVRM: Xid (PCI:0000:C7:00): "
    "79, pid=8821, GPU has fallen off the bus"
)


def _record(t: float, node: str = "n1") -> RawXidRecord:
    return RawXidRecord(time=t, node_id=node, pci_bus="p1", xid=79, message="m")


class TestFileSetSource:
    def test_lists_directory_files_sorted(self, logs_dir):
        source = FileSetSource(logs_dir)
        assert source.paths == sorted(source.paths)
        assert all(p.name.endswith(".log") for p in source.paths)
        assert len(source.shards()) == len(source.paths)

    def test_reads_gzip_files(self, tmp_path):
        path = tmp_path / "node.log.gz"
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            handle.write(LINE + "\n")
        records = list(extract_records(FileSetSource(tmp_path)))
        assert len(records) == 1 and records[0].xid == 79


class TestLinesSource:
    def test_parses_lines(self):
        records = list(extract_records(LinesSource([LINE, "noise line", LINE])))
        assert len(records) == 2

    def test_single_unordered_shard(self):
        source = LinesSource([LINE])
        assert len(source.shards()) == 1


class TestRecordsSource:
    def test_passes_records_through(self):
        records = [_record(1.0), _record(2.0)]
        batch = XidBatch.from_records(records)
        assert list(extract_records(RecordsSource(batch))) == records

