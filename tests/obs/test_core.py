"""Tracer unit tests: the no-op default, span lifecycle, fan-out context."""

from __future__ import annotations

import json
import threading

from repro import obs
from repro.obs import NULL_SPAN, TRACE_FILE_SUFFIX, TraceContext, Tracer


def read_records(directory):
    records = []
    for path in sorted(directory.glob(f"*{TRACE_FILE_SUFFIX}")):
        for line in path.read_text(encoding="utf-8").splitlines():
            records.append(json.loads(line))
    return records


class TestDisabledDefault:
    def test_span_returns_the_shared_null_singleton(self):
        assert obs.active() is None
        assert obs.span("anything") is NULL_SPAN
        assert obs.span("other", attr=1) is NULL_SPAN

    def test_null_span_supports_the_full_span_api(self):
        with obs.span("x") as span:
            span.add("counter", 3)
        assert span is NULL_SPAN

    def test_add_is_a_no_op(self):
        obs.add("some.counter", 7)  # must not raise

    def test_current_context_is_none(self):
        assert obs.current_context() is None

    def test_enabled_reflects_activation(self, tmp_path):
        assert obs.active() is None
        obs.activate(tmp_path)
        assert obs.active() is not None
        obs.deactivate()
        assert obs.active() is None


class TestSpanLifecycle:
    def test_spans_nest_and_record_parentage(self, tmp_path):
        tracer = obs.activate(tmp_path)
        with obs.span("outer") as outer:
            with obs.span("inner") as inner:
                assert inner.parent_id == outer.span_id
        obs.deactivate()
        spans = [r for r in read_records(tmp_path) if r["kind"] == "span"]
        by_name = {s["name"]: s for s in spans}
        # Children close first, so "inner" precedes "outer" in the file.
        assert [s["name"] for s in spans] == ["inner", "outer"]
        assert by_name["inner"]["parent"] == by_name["outer"]["id"]
        assert by_name["outer"]["parent"] is None
        assert by_name["outer"]["trace"] == tracer.trace_id

    def test_attrs_and_counters_land_on_the_record(self, tmp_path):
        obs.activate(tmp_path)
        with obs.span("work", phase="demo", extra="x") as span:
            span.add("items", 2)
            span.add("items", 3)
        obs.deactivate()
        (span_record,) = [
            r for r in read_records(tmp_path) if r["kind"] == "span"
        ]
        assert span_record["attrs"] == {"phase": "demo", "extra": "x"}
        assert span_record["counters"] == {"items": 5}

    def test_exceptions_stamp_an_error_attr_and_propagate(self, tmp_path):
        obs.activate(tmp_path)
        try:
            with obs.span("doomed"):
                raise ValueError("boom")
        except ValueError:
            pass
        obs.deactivate()
        (span_record,) = [
            r for r in read_records(tmp_path) if r["kind"] == "span"
        ]
        assert span_record["attrs"]["error"] == "ValueError"

    def test_span_ids_are_unique_across_threads(self, tmp_path):
        obs.activate(tmp_path)
        # Hold all four threads alive together: thread idents (the tid
        # alias key) are recycled once a thread exits.
        barrier = threading.Barrier(4)

        def work():
            barrier.wait()
            for _ in range(25):
                with obs.span("threaded"):
                    pass
            barrier.wait()

        threads = [threading.Thread(target=work) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        obs.deactivate()
        spans = [r for r in read_records(tmp_path) if r["kind"] == "span"]
        assert len(spans) == 100
        assert len({s["id"] for s in spans}) == 100
        # Distinct threads get distinct stable aliases.
        assert len({s["tid"] for s in spans}) == 4

    def test_each_thread_has_its_own_span_stack(self, tmp_path):
        obs.activate(tmp_path)
        seen = {}

        def work(name):
            with obs.span(name) as span:
                seen[name] = span.parent_id

        with obs.span("main-root"):
            t = threading.Thread(target=work, args=("other-thread",))
            t.start()
            t.join()
        obs.deactivate()
        # The other thread's span must NOT be parented under main-root.
        assert seen["other-thread"] is None


class TestCountersAndSnapshots:
    def test_add_attaches_to_the_innermost_open_span(self, tmp_path):
        obs.activate(tmp_path)
        with obs.span("holder"):
            obs.add("hits", 2)
        obs.deactivate()
        (span_record,) = [
            r for r in read_records(tmp_path) if r["kind"] == "span"
        ]
        assert span_record["counters"] == {"hits": 2}

    def test_orphan_counters_flush_as_a_counters_record_on_close(
        self, tmp_path
    ):
        obs.activate(tmp_path)
        obs.add("orphan.count", 4)
        obs.add("orphan.count", 1)
        obs.deactivate()
        (counters_record,) = [
            r for r in read_records(tmp_path) if r["kind"] == "counters"
        ]
        assert counters_record["counters"] == {"orphan.count": 5}

    def test_snapshot_and_delta(self, tmp_path):
        tracer = obs.activate(tmp_path)
        with obs.span("a"):
            obs.add("n", 1)
        before = tracer.snapshot()
        with obs.span("a"):
            obs.add("n", 2)
        with obs.span("b"):
            pass
        delta = tracer.delta(before)
        obs.deactivate()
        assert before["spans"]["a"]["calls"] == 1
        assert delta["spans"]["a"]["calls"] == 1
        assert delta["spans"]["b"]["calls"] == 1
        assert delta["counters"] == {"n": 2}


class TestFanOutContext:
    def test_current_context_parents_under_the_open_span(self, tmp_path):
        tracer = obs.activate(tmp_path)
        with obs.span("dispatch") as span:
            context = obs.current_context(label="job")
        obs.deactivate()
        assert isinstance(context, TraceContext)
        assert context.trace_id == tracer.trace_id
        assert context.parent_id == span.span_id
        assert context.label == "job"

    def test_activate_context_reparents_worker_roots(self, tmp_path):
        tracer = obs.activate(tmp_path)
        with obs.span("dispatch") as span:
            context = obs.current_context(label="job")
        obs.deactivate()
        # Simulate the worker side in-process.
        obs.activate_context(context)
        with obs.span("worker-root"):
            pass
        obs.deactivate()
        records = read_records(tmp_path)
        worker_meta = [
            r for r in records
            if r["kind"] == "meta" and r["label"] == "job"
        ]
        assert worker_meta and worker_meta[0]["parent"] == span.span_id
        worker_root = [
            r for r in records
            if r["kind"] == "span" and r["name"] == "worker-root"
        ]
        assert worker_root[0]["parent"] == span.span_id
        assert worker_root[0]["trace"] == tracer.trace_id

    def test_activate_context_accepts_none(self):
        assert obs.activate_context(None) is None
        assert obs.active() is None

    def test_context_is_picklable(self, tmp_path):
        import pickle

        obs.activate(tmp_path)
        context = obs.current_context()
        obs.deactivate()
        assert pickle.loads(pickle.dumps(context)) == context

    def test_abandon_never_writes_after_fork(self, tmp_path):
        tracer = Tracer(tmp_path, label="parent")
        tracer._abandon()  # what _forget_in_child does in the child
        tracer.close()  # must be a harmless no-op
        with obs.span("ignored"):
            pass
        # Only the parent's meta line exists; nothing else was written.
        records = read_records(tmp_path)
        assert [r["kind"] for r in records] == ["meta"]
