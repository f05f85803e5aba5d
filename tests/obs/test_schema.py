"""Trace record schema validation (``repro.obs/1``)."""

from __future__ import annotations

import json

from repro import obs
from repro.obs import SCHEMA_VERSION, TRACE_FILE_SUFFIX, validate_record


class TestValidateRecord:
    def test_non_mapping_is_rejected(self):
        assert validate_record(["not", "a", "dict"])
        assert validate_record("span")

    def test_unknown_kind_is_rejected(self):
        assert validate_record({"kind": "mystery"})

    def test_valid_meta(self):
        record = {"kind": "meta", "schema": SCHEMA_VERSION, "trace": "t",
                  "pid": 1, "parent": None, "label": "main",
                  "created": 1.0}
        assert validate_record(record) == []

    def test_meta_with_wrong_schema_version(self):
        record = {"kind": "meta", "schema": "repro.obs/999", "trace": "t",
                  "pid": 1, "label": "main", "created": 1.0}
        assert any("schema" in p for p in validate_record(record))

    def test_valid_span(self):
        record = {"kind": "span", "trace": "t", "id": "1.1", "parent": None,
                  "name": "x", "start": 1.0, "dur": 0.5, "pid": 1, "tid": 0}
        assert validate_record(record) == []

    def test_span_missing_fields(self):
        problems = validate_record({"kind": "span"})
        assert any("missing field 'id'" in p for p in problems)
        assert any("missing field 'dur'" in p for p in problems)

    def test_span_negative_duration(self):
        record = {"kind": "span", "trace": "t", "id": "1.1", "name": "x",
                  "start": 1.0, "dur": -0.1, "pid": 1, "tid": 0}
        assert any("negative" in p for p in validate_record(record))

    def test_span_non_numeric_counter(self):
        record = {"kind": "span", "trace": "t", "id": "1.1", "name": "x",
                  "start": 1.0, "dur": 0.1, "pid": 1, "tid": 0,
                  "counters": {"n": "five"}}
        assert any("not numeric" in p for p in validate_record(record))

    def test_valid_counters_record(self):
        record = {"kind": "counters", "trace": "t", "pid": 1,
                  "counters": {"n": 5}}
        assert validate_record(record) == []

    def test_counters_wrong_type(self):
        record = {"kind": "counters", "trace": "t", "pid": 1,
                  "counters": ["n"]}
        assert validate_record(record)


class TestEmittedRecordsValidate:
    def test_every_record_a_real_tracer_writes_passes(self, tmp_path):
        """Ground truth: the writer and the schema agree."""
        obs.activate(tmp_path)
        with obs.span("outer", mode="test"):
            with obs.span("inner") as inner:
                inner.add("items", 3)
        obs.add("orphan", 1)
        try:
            with obs.span("fails"):
                raise RuntimeError("x")
        except RuntimeError:
            pass
        obs.deactivate()
        n_checked = 0
        for path in tmp_path.glob(f"*{TRACE_FILE_SUFFIX}"):
            for line in path.read_text(encoding="utf-8").splitlines():
                record = json.loads(line)
                assert validate_record(record) == [], record
                n_checked += 1
        # meta + 3 spans + 1 orphan-counters record
        assert n_checked == 5
