"""Extract: parallel sharding identity and the k-way time merge."""

import pytest

from repro.core.coalesce import coalesce_errors
from repro.core.parsing import RawXidRecord, iter_file_records
from repro.core.streaming import StreamingCoalescer
from repro.pipeline.extract import extract_records, iter_source_records
from repro.pipeline.sources import FileSetSource, LinesSource, RecordsSource
from repro.syslog.reader import list_log_files


class TestParallelIdentity:
    """Satellite: 1, 2, and 4 workers yield byte-identical record streams
    (order included) on a multi-node synthetic dataset."""

    @pytest.fixture(scope="class")
    def serial(self, logs_dir):
        return extract_records(FileSetSource(logs_dir), workers=1)

    @pytest.mark.parametrize("workers", [2, 4])
    def test_stream_identical_to_serial(self, logs_dir, serial, workers):
        parallel = extract_records(FileSetSource(logs_dir), workers=workers)
        assert parallel == serial  # dataclass equality: every field, in order

    def test_stream_nonempty_and_multinode(self, serial):
        assert len(serial) > 1_000
        assert len({r.node_id for r in serial}) > 4

    def test_merged_stream_is_globally_time_ordered(self, serial):
        times = [r.time for r in serial]
        assert times == sorted(times)

    def test_same_multiset_as_unmerged_directory_iteration(self, logs_dir, serial):
        unmerged = sorted(
            (r for path in list_log_files(logs_dir) for r in iter_file_records(path)),
            key=lambda r: (r.time, r.node_id, r.pci_bus, r.xid, r.message),
        )
        merged = sorted(
            serial, key=lambda r: (r.time, r.node_id, r.pci_bus, r.xid, r.message)
        )
        assert merged == unmerged

    def test_both_engines_coalesce_the_merged_stream_alike(self, serial):
        """The merge's time order is the streaming engine's input contract:
        drained, it returns exactly the batch engine's errors."""
        coalescer = StreamingCoalescer()
        for record in serial:
            coalescer.feed(record)
        batch = coalesce_errors(serial)
        assert len(batch) > 100
        assert coalescer.flush() == batch


class TestExtractSemantics:
    def test_rejects_nonpositive_workers(self, logs_dir):
        with pytest.raises(ValueError):
            list(iter_source_records(FileSetSource(logs_dir), workers=0))

    def test_single_shard_source_falls_back_to_serial(self):
        source = LinesSource([
            "2022-03-14T02:11:09.113 n1 kernel: NVRM: Xid (PCI:0:1): "
            "31, pid=1, MMU Fault"
        ])
        assert len(extract_records(source, workers=8)) == 1

    def test_unordered_records_source_preserves_input_order(self):
        records = [
            RawXidRecord(time=t, node_id="n1", pci_bus="p", xid=31, message="m")
            for t in (5.0, 1.0, 3.0)
        ]
        assert extract_records(RecordsSource(records)) == records
