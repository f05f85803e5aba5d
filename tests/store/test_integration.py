"""Store against the real pipeline: identity, workers, studies, CLI."""

import gzip
import json

import pytest

from repro import obs
from repro.cli import main
from repro.core import DeltaStudy
from repro.core.parsing import XidBatch
from repro.pipeline import sources
from repro.pipeline.extract import extract_records, iter_source_batches
from repro.pipeline.sources import FileSetSource, LinesSource
from repro.store import EventStore, StoreSource, StoreWriter
from repro.store import writer as writer_module
from repro.syslog.reader import CorruptLogError


@pytest.fixture(scope="module")
def pipeline_stream(logs_dir):
    """The reference: the pipeline's merged records over the logs, as rows."""
    return list(extract_records(FileSetSource(logs_dir), workers=1))


@pytest.fixture(scope="module")
def built_store(logs_dir, dataset, tmp_path_factory):
    """One store ingested (workers=2) from the shared dataset's logs."""
    directory = tmp_path_factory.mktemp("store") / "events"
    store = EventStore.create(directory, meta={
        "window_hours": dataset.window_hours,
        "n_nodes": dataset.reference_node_count,
    })
    store.ingest(FileSetSource(logs_dir), workers=2, segment_records=500)
    return store


class TestPipelineIdentity:
    def test_store_replays_the_pipeline_stream_exactly(
        self, built_store, pipeline_stream
    ):
        # The store was built from the pipeline's merged stream; querying
        # it back must reproduce that stream record-for-record.
        assert list(built_store.query()) == pipeline_stream

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_ingest_worker_count_never_changes_content(
        self, logs_dir, tmp_path, pipeline_stream, workers
    ):
        store = EventStore.create(tmp_path / "events")
        store.ingest(
            FileSetSource(logs_dir), workers=workers, segment_records=700
        )
        assert list(store.query()) == pipeline_stream

    def test_identity_survives_compaction_and_reopen(
        self, logs_dir, tmp_path, pipeline_stream
    ):
        # A private store: compaction mutates it, the shared one stays put.
        store = EventStore.create(tmp_path / "events")
        store.append(extract_records(FileSetSource(logs_dir)), segment_records=500)
        store.compact(threshold=1000)
        reopened = EventStore.open(tmp_path / "events")
        assert list(reopened.query()) == pipeline_stream


class TestStreamedIngest:
    """Ingest reads the batch stream: segments hold exactly
    ``segment_records`` rows across chunk boundaries, byte for byte the
    segments of the whole batch appended at once."""

    @pytest.mark.parametrize("chunk_lines", [97, 4096])
    def test_file_set(self, logs_dir, tmp_path, monkeypatch, chunk_lines):
        monkeypatch.setattr(sources, "CHUNK_LINES", chunk_lines)
        self._check(tmp_path, lambda: FileSetSource(logs_dir))

    def test_one_unordered_line_shard(self, dataset, tmp_path, monkeypatch):
        monkeypatch.setattr(sources, "CHUNK_LINES", 97)
        self._check(tmp_path, lambda: LinesSource(dataset.log_lines()))

    def _check(self, tmp_path, make_source):
        streamed = EventStore.create(tmp_path / "streamed")
        streamed.ingest(make_source(), segment_records=333)
        whole = EventStore.create(tmp_path / "whole")
        whole.append(extract_records(make_source()), segment_records=333)
        sizes = [entry.n_records for entry in streamed.manifest.segments]
        assert len(sizes) > 2
        assert sizes[:-1] == [333] * (len(sizes) - 1) and 0 < sizes[-1] <= 333
        assert [entry.sha256 for entry in streamed.manifest.segments] == [
            entry.sha256 for entry in whole.manifest.segments
        ]


class TestFailedIngest:
    """An ingest that fails part-way leaves the store as it found it."""

    LINE = ("2022-03-14T{h:02d}:{m:02d}:{s:02d}.000 {node} kernel: NVRM: Xid "
            "(PCI:0000:07:00): 31, pid=1, MMU Fault")

    def _write(self, directory, nodes):
        directory.mkdir()
        for node in nodes:
            (directory / f"{node}.log").write_text("".join(
                self.LINE.format(h=t // 3600, m=t // 60 % 60, s=t % 60, node=node) + "\n"
                for t in range(0, 3_000, 7)
            ))
        return directory

    @pytest.fixture
    def cut_logs(self, tmp_path):
        """Three node logs, and a fourth gzipped and cut at 80%."""
        directory = self._write(tmp_path / "logs", ["gpua001", "gpua002", "gpua003", "gpua004"])
        plain = directory / "gpua004.log"
        data = gzip.compress(plain.read_bytes())
        (directory / "gpua004.log.gz").write_bytes(data[: len(data) * 4 // 5])
        plain.unlink()
        return directory

    def test_a_cut_log_gz_leaves_the_store_empty(self, cut_logs, tmp_path, monkeypatch):
        monkeypatch.setattr(sources, "CHUNK_LINES", 16)
        store = EventStore.create(tmp_path / "events")
        appended = []
        append_segment = store.append_segment
        monkeypatch.setattr(
            store, "append_segment", lambda batch: appended.append(append_segment(batch))
        )
        with pytest.raises(CorruptLogError, match=r"gpua004\.log\.gz"):
            store.ingest(FileSetSource(cut_logs), segment_records=50)
        assert len(appended) > 1  # segments were committed before the cut
        assert (store.n_segments, store.n_records) == (0, 0)
        assert not list((tmp_path / "events").glob("seg-*"))
        reopened = EventStore.open(tmp_path / "events")
        assert (reopened.n_segments, reopened.n_records) == (0, 0)

    def test_an_ingest_keeps_the_segments_it_did_not_append(self, cut_logs, tmp_path):
        store = EventStore.create(tmp_path / "events")
        store.ingest(FileSetSource(self._write(tmp_path / "good", ["gpub001"])))
        before = [entry.sha256 for entry in store.manifest.segments]
        with pytest.raises(CorruptLogError):
            store.ingest(FileSetSource(cut_logs), segment_records=50)
        assert [entry.sha256 for entry in store.manifest.segments] == before
        reopened = EventStore.open(tmp_path / "events")
        assert [entry.sha256 for entry in reopened.manifest.segments] == before


class TestTracedIngest:
    def test_segment_writes_nest_under_the_one_pass_span(self, logs_dir, tmp_path):
        obs.activate(tmp_path / "trace")
        try:
            store = EventStore.create(tmp_path / "events")
            segments = store.ingest(FileSetSource(logs_dir), segment_records=5_000)
        finally:
            obs.deactivate()
        spans = obs.read_trace_dir(tmp_path / "trace").spans
        (scan,) = [s for s in spans if s["name"] in ("pipeline.merge", "pipeline.concat")]
        writes = sorted(
            (s for s in spans if s["name"] == "store.segment"), key=lambda s: s["start"]
        )
        assert len(writes) == len(segments) > 2
        # Full segments are written while the pass is open; the remainder
        # only once the stream has ended, under the caller's span.
        assert {s["parent"] for s in writes[:-1]} == {scan["id"]}
        assert writes[-1]["parent"] is None
        assert sum(s["counters"]["store.records_written"] for s in writes) == store.n_records
        assert sum(s["counters"]["store.bytes_written"] for s in writes) == sum(
            entry.n_bytes for entry in store.manifest.segments
        )


class TestStoreSource:
    def test_source_is_reiterable(self, built_store):
        source = StoreSource(built_store)
        assert source.reiterable
        first = [r for shard in source.shards() for r in shard.batch()]
        second = [r for shard in source.shards() for r in shard.batch()]
        assert first == second


class TestStudyRoundTrip:
    def test_from_store_reproduces_statistics(self, study, dataset, tmp_path):
        fresh = DeltaStudy.from_dataset(dataset)
        store = EventStore.open_or_create(tmp_path / "events", meta={
            "window_hours": fresh.window_hours,
            "n_nodes": fresh.n_nodes,
            "n_gpus": fresh.n_gpus,
        })
        store.append(fresh.records, segment_records=900)
        restored = DeltaStudy.from_store(store)
        assert restored.window_hours == study.window_hours
        assert restored.n_gpus == study.n_gpus
        assert restored.store_hash == store.content_hash()
        ours = restored.error_statistics()
        theirs = study.error_statistics()
        assert ours.total_count == theirs.total_count
        assert ours.counts() == theirs.counts()

    def test_store_backed_study_streams_without_materializing(self, built_store):
        study = DeltaStudy.from_store(built_store)
        study.errors  # Stage I+II runs off the streaming path
        assert study._records is None  # never materialized the raw stream

    def test_from_store_requires_window_metadata(self, tmp_path):
        store = EventStore.create(tmp_path / "events")
        with pytest.raises(ValueError):
            DeltaStudy.from_store(store)


class TestStoreWriter:
    def test_pipeline_consumer_persists_every_record(
        self, logs_dir, tmp_path, pipeline_stream, monkeypatch
    ):
        monkeypatch.setattr(writer_module, "SEGMENT_RECORDS", 600)
        store = EventStore.create(tmp_path / "events")
        writer = StoreWriter(store)
        for batch in iter_source_batches(FileSetSource(logs_dir)):
            writer.write(batch)
        writer.close()
        assert writer.counters.values()["store.records_written"] == len(pipeline_stream)
        assert list(store.query()) == pipeline_stream
        # Every segment but the remainder holds exactly SEGMENT_RECORDS.
        sizes = [entry.n_records for entry in store.manifest.segments]
        assert len(sizes) > 2 and set(sizes[:-1]) == {600} and 0 < sizes[-1] <= 600

    def test_flush_on_close_loses_nothing(self, tmp_path, records, monkeypatch):
        monkeypatch.setattr(writer_module, "FLUSH_SECONDS", float("inf"))
        store = EventStore.create(tmp_path / "events")
        writer = StoreWriter(store)  # never auto-flushes
        writer.write(XidBatch.from_records(records))
        assert store.n_records == 0
        writer.close()
        assert store.n_records == len(records)


class TestStoreCli:
    @pytest.fixture()
    def data_dir(self, tmp_path):
        directory = tmp_path / "data"
        assert main([
            "synthesize", str(directory), "--scale", "0.004", "--seed", "3",
        ]) == 0
        return directory

    def test_build_stats_query(self, data_dir, tmp_path, capsys):
        store_dir = tmp_path / "events"
        capsys.readouterr()
        assert main([
            "store", "build", str(data_dir), str(store_dir),
            "--scale", "0.004", "--seed", "3",
        ]) == 0
        out = capsys.readouterr().out
        assert "records" in out and "segment" in out

        assert main(["store", "stats", str(store_dir), "--json"]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["n_records"] > 0
        assert stats["meta"]["scale"] == 0.004

        assert main(["store", "query", str(store_dir), "--count"]) == 0
        assert int(capsys.readouterr().out.strip()) == stats["n_records"]

    def test_query_filters_and_prints_records(self, data_dir, tmp_path, capsys):
        store_dir = tmp_path / "events"
        main(["store", "build", str(data_dir), str(store_dir),
              "--scale", "0.004", "--seed", "3"])
        capsys.readouterr()
        assert main([
            "store", "query", str(store_dir), "--xids", "48", "--limit", "5",
        ]) == 0
        out = capsys.readouterr().out
        lines = [line for line in out.splitlines() if line]
        assert len(lines) <= 5
        assert all("\t48\t" in line for line in lines)

    def test_study_store_read_through_matches_plain(
        self, data_dir, tmp_path, capsys
    ):
        base = ["study", "--dataset", str(data_dir), "--scale", "0.004",
                "--seed", "3"]
        assert main(base) == 0
        plain = capsys.readouterr().out
        store_flag = ["--store", str(tmp_path / "events")]
        assert main(base + store_flag) == 0  # cold: builds the store
        cold = capsys.readouterr().out
        assert main(base + store_flag) == 0  # warm: reuses it
        warm = capsys.readouterr().out
        assert plain == cold == warm
        assert EventStore.exists(tmp_path / "events")

    def test_study_store_scale_mismatch_is_a_clean_error(
        self, data_dir, tmp_path, capsys
    ):
        store_flag = ["--store", str(tmp_path / "events")]
        main(["study", "--dataset", str(data_dir), "--scale", "0.004",
              "--seed", "3"] + store_flag)
        capsys.readouterr()
        assert main(["study", "--dataset", str(data_dir), "--scale", "0.008",
                     "--seed", "3"] + store_flag) == 2
        assert "error:" in capsys.readouterr().out

    def test_experiment_manifest_records_store_hash(
        self, data_dir, tmp_path, capsys
    ):
        store_dir = tmp_path / "events"
        capsys.readouterr()
        assert main([
            "experiment", "table1", "--scale", "0.004", "--seed", "3",
            "--store", str(store_dir), "--format", "json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        expected = EventStore.open(store_dir).content_hash()
        assert payload["manifest"]["config_hashes"]["store"] == expected

    def test_serve_simulate_with_store_leaves_durable_history(
        self, tmp_path, capsys
    ):
        logs = tmp_path / "logs"
        store_dir = tmp_path / "events"
        assert main([
            "serve", str(logs), "--simulate", "--seed", "11",
            "--store", str(store_dir),
        ]) == 0
        out = capsys.readouterr().out
        assert "store:" in out
        store = EventStore.open(store_dir)
        assert store.n_records > 0


class TestMalformedInput:
    """Stage-I input defects reach the store as explicit outcomes."""

    LINE = ("2022-03-14T02:11:09.113 gpub042 kernel: NVRM: Xid (PCI:0000:C7:00): "
            "79, pid={pid}, GPU has fallen off the bus")

    def test_build_over_pids_that_are_not_int64(self, tmp_path, capsys):
        logs = tmp_path / "logs"
        logs.mkdir()
        (logs / "gpub042.log").write_text("\n".join([
            self.LINE.format(pid="²"),
            self.LINE.format(pid="99999999999999999999"),
            self.LINE.format(pid="8821"),
            self.LINE.format(pid="1").replace("2022-03-14", "2022-02-30"),
        ]) + "\n", encoding="utf-8")
        store_dir = tmp_path / "events"
        assert main(["store", "build", str(logs), str(store_dir)]) == 0
        records = list(EventStore.open(store_dir).query())
        assert [r.pid for r in records] == [None, None, 8821]
