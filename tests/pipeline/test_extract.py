"""Extract: parallel sharding identity and the k-way time merge."""

import heapq
import operator
from dataclasses import dataclass
from typing import Tuple
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.coalesce import coalesce_errors
from repro.core.parsing import RawXidRecord, XidBatch, parse_line
from repro.core.streaming import StreamingCoalescer
from repro.pipeline import sources
from repro.pipeline.extract import extract_records, iter_source_batches
from repro.pipeline.sources import (
    FileSetSource,
    FileShard,
    LinesSource,
    RecordsSource,
    Source,
)
from repro.syslog.reader import iter_log_lines, list_log_files


def parse_syslog(lines):
    """The row reference: :func:`parse_line` on each line."""
    return [record for record in map(parse_line, lines) if record is not None]


def _stream_rows(source, workers=1):
    """The rows of the batch stream, checking that no batch is empty."""
    batches = list(iter_source_batches(source, workers=workers))
    assert all(len(batch) for batch in batches)
    return [record for batch in batches for record in batch]


class TestParallelIdentity:
    """Satellite: 1, 2, and 4 workers yield byte-identical record streams
    (order included) on a multi-node synthetic dataset."""

    @pytest.fixture(scope="class")
    def serial(self, logs_dir):
        return extract_records(FileSetSource(logs_dir), workers=1)

    @pytest.mark.parametrize("workers", [2, 4])
    def test_stream_identical_to_serial(self, logs_dir, serial, workers):
        parallel = extract_records(FileSetSource(logs_dir), workers=workers)
        assert parallel == serial  # batch equality: every record, in order

    @pytest.mark.parametrize("workers", [1, 2])
    def test_batch_equals_the_row_merge(self, logs_dir, serial, workers):
        rows = _stream_rows(FileSetSource(logs_dir), workers=workers)
        assert list(serial) == rows

    def test_stream_nonempty_and_multinode(self, serial):
        assert len(serial) > 1_000
        assert len({r.node_id for r in serial}) > 4

    def test_merged_stream_is_globally_time_ordered(self, serial):
        times = [r.time for r in serial]
        assert times == sorted(times)

    def test_same_multiset_as_unmerged_directory_iteration(self, logs_dir, serial):
        unmerged = sorted(
            (
                r for path in list_log_files(logs_dir)
                for r in parse_syslog(iter_log_lines(path))
            ),
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
            list(iter_source_batches(FileSetSource(logs_dir), workers=0))

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
        batch = XidBatch.from_records(records)
        assert list(extract_records(RecordsSource(batch))) == records


_TIMES = st.sampled_from([0.0, 1.0, 1.0, 2.5, 3.0, 7.0])


def _shard(times, node):
    return [
        RawXidRecord(time=t, node_id=node, pci_bus="p", xid=31, message=f"m{i}")
        for i, t in enumerate(times)
    ]


def _heap_merged(shards):
    return list(heapq.merge(*shards, key=operator.attrgetter("time")))


class TestMergeOrder:
    """XidBatch.merge is heapq.merge by time, ties by shard order."""

    @given(st.lists(st.lists(_TIMES, max_size=8), min_size=1, max_size=5))
    @settings(max_examples=150, deadline=None)
    def test_ordered_shards(self, shard_times):
        shards = [_shard(sorted(times), f"n{k}") for k, times in enumerate(shard_times)]
        merged = XidBatch.merge([XidBatch.from_records(s) for s in shards])
        assert list(merged) == _heap_merged(shards)

    @given(
        st.lists(st.lists(_TIMES, max_size=8), min_size=1, max_size=4),
        st.lists(_TIMES, min_size=2, max_size=8),
        st.integers(0, 4),
    )
    @settings(max_examples=150, deadline=None)
    def test_one_unordered_shard(self, shard_times, unordered, at):
        assume(unordered != sorted(unordered))
        shards = [_shard(sorted(times), f"n{k}") for k, times in enumerate(shard_times)]
        shards.insert(min(at, len(shards)), _shard(unordered, "late"))
        merged = XidBatch.merge([XidBatch.from_records(s) for s in shards])
        assert list(merged) == _heap_merged(shards)


@dataclass(frozen=True)
class _ChunkedShard:
    """Rows served whole, or ``size`` at a time; picklable."""

    rows: Tuple[RawXidRecord, ...]
    size: int

    def batch(self):
        return XidBatch.from_records(self.rows)

    def chunks(self):
        for start in range(0, len(self.rows), self.size):
            yield XidBatch.from_records(self.rows[start:start + self.size])


class _Shards(Source):
    def __init__(self, shards):
        self._shards = shards

    def shards(self):
        return self._shards


class TestChunkStream:
    """The chunk stream is heapq.merge of the shards' rows, and the batch
    extract_records returns, for any chunk sizes."""

    @given(
        st.lists(st.lists(_TIMES, max_size=12), min_size=1, max_size=5),
        st.lists(_TIMES, max_size=8),
        st.integers(0, 5),
        st.lists(st.integers(1, 9), min_size=6, max_size=6),
    )
    @settings(max_examples=150, deadline=None)
    def test_equals_the_heap_merge(self, shard_times, unordered, at, sizes):
        """Empty shards, ties across shards, and at times one unordered shard."""
        shards = [_shard(sorted(times), f"n{k}") for k, times in enumerate(shard_times)]
        shards.insert(min(at, len(shards)), _shard(unordered, "late"))
        want = _heap_merged(shards)
        source = _Shards([
            _ChunkedShard(tuple(rows), size) for rows, size in zip(shards, sizes)
        ])
        assert _stream_rows(source) == want
        for workers in (1, 2):
            assert list(extract_records(source, workers=workers)) == want

    @given(
        st.lists(st.lists(_TIMES, max_size=20), min_size=2, max_size=5),
        st.integers(1, 6),
    )
    @settings(max_examples=150, deadline=None)
    def test_holds_one_chunk_per_open_shard(self, shard_times, size):
        """At every yield and every chunk load, the rows loaded and not yet
        yielded are at most a chunk per open shard, plus the rows tied at
        the horizon."""
        loaded = [[] for _ in shard_times]
        exhausted = [False] * len(shard_times)
        yielded = 0

        def check_bound():
            open_shards = [k for k, done in enumerate(exhausted) if not done]
            horizon = min((loaded[k][-1] for k in open_shards if loaded[k]), default=None)
            tied = sum(t == horizon for times in loaded for t in times)
            held = sum(map(len, loaded)) - yielded
            assert held <= size * len(open_shards) + tied

        class Watched:
            def __init__(self, k):
                self.k = k

            def chunks(self):
                times = sorted(shard_times[self.k])
                for start in range(0, len(times), size):
                    check_bound()
                    loaded[self.k].extend(times[start:start + size])
                    yield XidBatch.from_records(
                        _shard(times[start:start + size], f"n{self.k}")
                    )
                exhausted[self.k] = True

        shards = _Shards([Watched(k) for k in range(len(shard_times))])
        for batch in iter_source_batches(shards):
            yielded += len(batch)
            check_bound()
        assert yielded == sum(map(len, shard_times))


class TestFileSetMerge:
    """Serial and pooled extraction of a file set equal the row merge,
    also when a file is out of time order."""

    LINE = ("2022-03-14T02:11:{sec} {node} kernel: NVRM: Xid (PCI:0000:07:00): "
            "{xid}, pid=1, MMU Fault")

    @pytest.fixture
    def logs(self, tmp_path):
        for node, seconds in (
            ("gpua001", ["01.000", "03.500", "03.500", "09.000"]),
            ("gpua002", ["05.000", "02.000", "03.500"]),  # out of order
            ("gpua003", ["03.500", "04", "08.250"]),
        ):
            (tmp_path / f"{node}.log").write_text("".join(
                self.LINE.format(sec=sec, node=node, xid=31 + i) + "\n"
                for i, sec in enumerate(seconds)
            ))
        return tmp_path

    @pytest.mark.parametrize("workers", [1, 2])
    def test_batch_equals_the_row_merge(self, logs, workers):
        rows = _heap_merged(
            [parse_syslog(iter_log_lines(path)) for path in list_log_files(logs)]
        )
        assert len(rows) == 10
        assert list(extract_records(FileSetSource(logs), workers=workers)) == rows
        assert _stream_rows(FileSetSource(logs), workers=workers) == rows


def test_file_records_stream_in_chunks_equal_to_the_line_parser(tmp_path):
    lines = [
        "2022-03-14T02:11:01.000 gpua001 kernel: NVRM: Xid (PCI:0000:07:00): 31, pid=1, a",
        "2022-03-14T02:11:02.000 gpua001 systemd[1]: Started session",
        "2022-03-14T02:11:03.123456 gpua001 kernel: NVRM: Xid (PCI:0000:07:00): 31, pid=1, a",
        "2022-03-14T02:11:04.000\tgpua001 kernel: NVRM: Xid (PCI:0000:07:00): 79, pid=2, b",
        "2022-02-30T02:11:05.000 gpua001 kernel: NVRM: Xid (PCI:0000:07:00): 31, pid=1, a",
        "2022-03-14T02:11:06 gpua001 kernel: NVRM: Xid (PCI:0000:07:00): 31, pid=²,  a",
        "2022-03-14T02:11:07.500 gpua001 kernel: NVRM: Xid (PCI:0000:07:00): 31, pid=1, a",
    ]
    path = tmp_path / "gpua001.log"
    path.write_text("\n".join(lines) + "\n")
    want = parse_syslog(lines)
    assert len(want) == 5
    for chunk_lines in (1, 2, 3, 1024):
        with mock.patch.object(sources, "CHUNK_LINES", chunk_lines):
            chunks = list(FileShard(path).chunks())
            assert len(chunks) == -(-len(lines) // chunk_lines)
            assert list(XidBatch.concat(chunks)) == want
