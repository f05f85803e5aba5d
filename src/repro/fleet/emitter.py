"""Replay a fault trace into per-node log files, live.

The generation-side counterpart of the tailers: takes the syslog lines a
:class:`~repro.faults.events.FaultTrace` renders to, orders them the way
a real collection pipeline would see them (each node's file chronologial,
cross-node arrival by timestamp via a streaming heap merge — no global
sort), and *appends* them to ``<dir>/<node>.log`` over time so tailers
experience genuine live growth.

``speedup`` maps simulation seconds to wall-clock seconds (e.g. 86 400
plays a day per second); ``None`` replays flat-out, which is what tests
use to exercise the concurrency without waiting.
"""

from __future__ import annotations

import heapq
import threading
import time
from pathlib import Path
from typing import Dict, IO, Iterable, Iterator, List, Optional

from repro.faults.events import FaultTrace
from repro.syslog.format import render_trace
from repro.util.timeutil import parse_timestamp


def _node_of(line: str) -> str:
    """Extract the hostname field (second token) of a syslog line."""
    try:
        return line.split(" ", 2)[1]
    except IndexError:
        return "unknown"


def _merged_lines(lines: Iterable[str]) -> Iterator[str]:
    """Arrival-order merge: bucket per node, sort each bucket (node-local
    syslog is chronological), then heap-merge buckets by timestamp prefix.

    The per-node sort mirrors what each node's syslog daemon does before
    anything ships; the cross-node merge is a k-way streaming heap, not a
    global sort of the whole log volume.
    """
    buckets: Dict[str, List[str]] = {}
    for line in lines:
        buckets.setdefault(_node_of(line), []).append(line)
    for bucket in buckets.values():
        bucket.sort()  # ISO-8601 prefix: lexical == chronological
    yield from heapq.merge(*buckets.values())


class LiveLogEmitter:
    """Append a trace's syslog lines to per-node files in arrival order."""

    def __init__(
        self,
        lines: Iterable[str],
        directory: str | Path,
        *,
        speedup: Optional[float] = None,
    ) -> None:
        if speedup is not None and speedup <= 0:
            raise ValueError("speedup must be positive (or None for flat-out)")
        self.directory = Path(directory)
        self.speedup = speedup
        self._lines = _merged_lines(lines)
        self._thread: Optional[threading.Thread] = None
        self._stop = threading.Event()
        self.lines_written = 0

    @classmethod
    def from_trace(
        cls,
        trace: FaultTrace,
        directory: str | Path,
        *,
        seed: int = 0,
        speedup: Optional[float] = None,
    ) -> "LiveLogEmitter":
        return cls(render_trace(trace.events, seed=seed), directory, speedup=speedup)

    # ------------------------------------------------------------------

    def run(self) -> int:
        """Emit synchronously; returns the number of lines written."""
        self.directory.mkdir(parents=True, exist_ok=True)
        handles: Dict[str, IO[str]] = {}
        wall_start = time.monotonic()
        sim_start: Optional[float] = None
        try:
            for line in self._lines:
                if self._stop.is_set():
                    break
                if self.speedup is not None:
                    sim_t = parse_timestamp(line.split(" ", 1)[0])
                    if sim_start is None:
                        sim_start = sim_t
                    due = wall_start + (sim_t - sim_start) / self.speedup
                    delay = due - time.monotonic()
                    if delay > 0:
                        if self._stop.wait(delay):
                            break
                node = _node_of(line)
                handle = handles.get(node)
                if handle is None:
                    handle = open(
                        self.directory / f"{node}.log", "a", encoding="utf-8"
                    )
                    handles[node] = handle
                handle.write(line + "\n")
                handle.flush()
                self.lines_written += 1
        finally:
            for handle in handles.values():
                handle.close()
        return self.lines_written

    # -- background operation ------------------------------------------

    def start(self) -> "LiveLogEmitter":
        if self._thread is not None:
            raise RuntimeError("emitter already started")
        self._thread = threading.Thread(
            target=self.run, daemon=True, name="fleet-emitter"
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()

    def join(self, timeout: float | None = None) -> None:
        if self._thread is not None:
            self._thread.join(timeout)
