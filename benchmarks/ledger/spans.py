"""Harness spans: the benchmark's own timing of calls into each layer.

Spans are kept in memory while a walk runs and written out once at the
end, so recording costs one clock read and one dict per boundary.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional


class Recorder:
    """Collects ``{id, name, parent, start, end}`` spans, nested by call."""

    def __init__(self) -> None:
        self.spans: List[dict] = []
        self._open: List[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[dict]:
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def total(self, name: str) -> float:
        """Summed duration of every closed span called ``name``."""
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)

    def write_jsonl(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.spans:
                handle.write(json.dumps(record, sort_keys=True) + "\n")


def _covered(start: float, end: float, intervals: Iterable[tuple]) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    clipped = sorted(
        (max(a, start), min(b, end)) for a, b in intervals if b > start and a < end
    )
    covered = 0.0
    run_start: Optional[float] = None
    run_end = start
    for a, b in clipped:
        if run_start is None or a > run_end:
            if run_start is not None:
                covered += run_end - run_start
            run_start, run_end = a, b
        else:
            run_end = max(run_end, b)
    if run_start is not None:
        covered += run_end - run_start
    return covered


def self_times(spans: List[dict]) -> Dict[int, float]:
    """Span id -> duration minus the part of it its children cover.

    Children that overlap each other (work fanned out to processes) are
    counted once, and any part of a child outside its parent is ignored.
    """
    children: Dict[int, List[tuple]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(
                (span["start"], span["end"])
            )
    return {
        span["id"]: (span["end"] - span["start"])
        - _covered(span["start"], span["end"], children.get(span["id"], ()))
        for span in spans
    }


def self_time_by_name(spans: List[dict], root: Optional[str] = None) -> Dict[str, float]:
    """Summed self time per span name, optionally only under root ``root``.

    The root span itself is left out: its self time is the harness's own
    bookkeeping between calls.
    """
    by_id = {s["id"]: s for s in spans}

    def root_of(span: dict) -> dict:
        while span["parent"] is not None:
            span = by_id[span["parent"]]
        return span

    selected = [
        s for s in spans
        if s["parent"] is not None and (root is None or root_of(s)["name"] == root)
    ]
    own = self_times(spans)
    totals: Dict[str, float] = {}
    for span in selected:
        totals[span["name"]] = totals.get(span["name"], 0.0) + own[span["id"]]
    return totals
