"""Tests of the ledger's own rules, and an end-to-end smoke run.

    PYTHONPATH=src python -m pytest benchmarks/ledger/test_ledger.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from benchmarks.ledger import stats
from benchmarks.ledger.spans import Recorder, self_time_by_name, self_times

ROOT = Path(__file__).resolve().parents[2]


# -- the percentile rule ---------------------------------------------------


def test_tail_percentile_needs_ten_samples_beyond():
    assert stats.tail_percentile(list(range(1000))) == (99.0, 989)
    assert stats.tail_percentile(list(range(100))) == (90.0, 89)
    assert stats.tail_percentile(list(range(21))) == (50.0, 10)
    assert stats.tail_percentile(list(range(19))) is None


def test_tail_percentile_counts_ties_as_not_beyond():
    values = [1.0] * 995 + [2.0] * 5
    assert stats.tail_percentile(values) is None


def test_summary_reports_a_percentile_only_when_supported():
    assert "p99" in stats.summarize([float(v) for v in range(1000)])
    assert not any(k.startswith("p") for k in stats.summarize([1.0, 2.0, 3.0]))


# -- self time -------------------------------------------------------------


def _span(id_, name, parent, start, end):
    return {"id": id_, "name": name, "parent": parent, "start": start, "end": end}


def test_self_time_of_nested_spans():
    spans = [
        _span(0, "walk", None, 0.0, 10.0),
        _span(1, "a", 0, 1.0, 4.0),
        _span(2, "b", 1, 2.0, 3.0),
    ]
    assert self_times(spans) == {0: 7.0, 1: 2.0, 2: 1.0}


def test_self_time_counts_overlapping_children_once():
    spans = [
        _span(0, "fanout", None, 0.0, 10.0),
        _span(1, "w1", 0, 1.0, 5.0),
        _span(2, "w2", 0, 3.0, 8.0),
        _span(3, "w3", 0, 9.0, 12.0),  # runs past its parent: clipped
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 7.0 - 1.0)


def test_self_time_by_name_sums_under_one_root():
    spans = [
        _span(0, "walk", None, 0.0, 4.0),
        _span(1, "x", 0, 0.0, 1.0),
        _span(2, "x", 0, 2.0, 3.0),
        _span(3, "probe", None, 4.0, 9.0),
        _span(4, "x", 3, 4.0, 9.0),
    ]
    assert self_time_by_name(spans, root="walk") == {"x": 2.0}
    assert self_time_by_name(spans) == {"x": 7.0}


def test_recorder_nests_by_call():
    recorder = Recorder()
    with recorder.span("walk"):
        with recorder.span("a"):
            pass
    walk, a = recorder.spans
    assert a["parent"] == walk["id"] and walk["parent"] is None
    assert walk["start"] <= a["start"] <= a["end"] <= walk["end"]


# -- compare verdicts ------------------------------------------------------

PARENT = [10.0, 10.1, 10.2, 9.9, 10.0, 10.1, 9.8, 10.0, 10.2, 10.1]


def test_verdict_within_bound():
    change = [v * 1.05 for v in PARENT]
    assert stats.verdict(PARENT, change, 0.10, "lower") == "within bound"


def test_verdict_worse_and_better():
    assert stats.verdict(PARENT, [v * 1.2 for v in PARENT], 0.10, "lower") == "worse"
    assert stats.verdict(PARENT, [v * 0.8 for v in PARENT], 0.10, "lower") == "better"
    assert stats.verdict(PARENT, [v * 0.8 for v in PARENT], 0.10, "higher") == "worse"


def test_verdict_unresolved_when_spread_exceeds_bound():
    noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0]
    assert stats.verdict(PARENT, noisy, 0.10, "lower") == "unresolved"


def test_verdict_noisy_but_every_run_better_counts():
    noisy_fast = [1.0, 3.0, 2.0, 4.0, 1.5, 3.5, 2.5, 1.2, 3.8, 2.2]
    assert stats.verdict(PARENT, noisy_fast, 0.10, "lower") == "better"


def test_claim_needs_nine_in_ten_pairs_and_a_gap_beyond_parent_iqr():
    gain = [v - 1.0 for v in PARENT]
    assert stats.claim(PARENT, gain, "lower")["met"]
    one_tie_one_loss = gain[:8] + [PARENT[8], PARENT[9] + 1.0]
    assert not stats.claim(PARENT, one_tie_one_loss, "lower")["met"]
    tiny = [v - 0.01 for v in PARENT]
    result = stats.claim(PARENT, tiny, "lower")
    assert result["wins"] == 10 and not result["met"]


# -- end to end ------------------------------------------------------------


def test_run_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "benchmarks" / "ledger", tmp_path / "benchmarks" / "ledger",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/ledger/run.py", "--workload", "study-serial",
         "--seed", "7", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_smoke_ledger_reports_every_named_metric(tmp_path):
    output = tmp_path / "ledger.json"
    proc = subprocess.run(
        [sys.executable, "-m", "benchmarks.ledger", "run", "--smoke",
         "--output", str(output)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ledger = json.loads(output.read_text(encoding="utf-8"))
    assert list(ledger["workloads"]) == [w["name"] for w in bench["workloads"]]
    for entry in ledger["workloads"].values():
        assert entry["correct"] and entry["failed"] == 0
        assert set(entry["end_to_end"]) == {m["name"] for m in bench["end_to_end"]}
        assert set(entry["per_layer"]) == {m["name"] for m in bench["per_layer"]}
        for name, metric in entry["end_to_end"].items():
            assert metric["median"] > 0, name
    verify = ledger["workloads"]["verify-parallel"]["per_layer"]
    assert verify["pipeline.extract_passes"]["value"] == 2
