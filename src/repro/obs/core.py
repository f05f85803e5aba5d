"""Hierarchical span/counter tracing with a near-zero-overhead default.

The instrumentation contract mirrors what the paper's own telemetry
stack had to solve at 202 GB scale: the *measurement* layer must cost
nothing when idle and must never perturb the *measured* results.  Two
invariants follow:

* **Disabled is the default and it is almost free.**  ``obs.span(...)``
  returns a shared ``NULL_SPAN`` singleton when no tracer is active —
  one module-global read and one identity check on the hot path, no
  allocation, no clock read.
* **Tracing never changes outputs.**  Span timings live only in trace
  files and in the optional ``RunManifest.trace`` block, which is
  excluded from default serialization, from ``config_hashes`` and from
  every identity gate.  Reports, ``result.json`` and manifests are
  byte-identical with tracing on or off, serial or fanned out.

Process model: each process writes its **own** JSONL file inside the
trace directory (``{label}-{pid}-{token}.trace.jsonl``), so no
cross-process lock is ever taken.  Workers inherit a picklable
:class:`TraceContext` through pool initializers; their root spans are
parented under the dispatching span's id, which is how the trace reader
stitches a fan-out back into one tree.  A ``fork()`` while a tracer is
active abandons the inherited file handle in the child (the parent owns
it); pool initializers then activate a fresh per-process sink.

Records are written eagerly — one ``json.dumps`` + ``flush`` per
completed span — so a trace survives ``Pool.terminate()`` and crashed
workers with at most the in-flight span missing.
"""

from __future__ import annotations

import atexit
import json
import os
import threading
import time
import uuid
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional

#: Version tag stamped into every trace file's ``meta`` record.
SCHEMA_VERSION = "repro.obs/1"

#: Every per-process trace file ends with this suffix.
TRACE_FILE_SUFFIX = ".trace.jsonl"


class _NullSpan:
    """The disabled-tracing span: every operation is a no-op.

    A single shared instance (``NULL_SPAN``) is returned by
    :func:`span` whenever no tracer is active, so the disabled path
    allocates nothing.
    """

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def add(self, name: str, value: float = 1) -> None:
        pass


NULL_SPAN = _NullSpan()


class Span:
    """One timed region, emitted as a ``span`` record when it closes."""

    __slots__ = (
        "tracer", "name", "span_id", "parent_id",
        "start_unix", "_start_perf", "attrs", "counters", "_tid",
    )

    def __init__(self, tracer: "Tracer", name: str, parent_id: Optional[str],
                 tid: int, **attrs) -> None:
        self.tracer = tracer
        self.name = name
        self.span_id = tracer._next_span_id()
        self.parent_id = parent_id
        self.attrs = dict(attrs) if attrs else {}
        self.counters: Dict[str, float] = {}
        self._tid = tid
        self.start_unix = time.time()
        self._start_perf = time.perf_counter()

    def add(self, name: str, value: float = 1) -> None:
        """Bump a named counter scoped to this span."""
        self.counters[name] = self.counters.get(name, 0) + value

    def __enter__(self) -> "Span":
        self.tracer._begin(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None:
            self.attrs["error"] = exc_type.__name__
        self.tracer._finish(self)
        return False


@dataclass(frozen=True)
class TraceContext:
    """The picklable slice of a tracer shipped to worker processes.

    Pool initializers call :func:`activate_context` with one of these;
    the worker then writes its own trace file into the same directory,
    with root spans parented under ``parent_id`` (the dispatching span).
    """

    directory: str
    trace_id: str
    parent_id: Optional[str] = None
    label: str = "worker"


class Tracer:
    """An active trace: one JSONL sink for this process.

    Thread-safe: span stacks are thread-local, file writes serialize on
    one lock, counters merge under the same lock.  Not shared across
    processes — each process activates its own tracer (see
    :class:`TraceContext`).
    """

    def __init__(self, directory: str | Path, *, trace_id: Optional[str] = None,
                 parent_id: Optional[str] = None, label: str = "main") -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.trace_id = trace_id or uuid.uuid4().hex[:16]
        self.parent_id = parent_id
        self.label = label
        self.pid = os.getpid()
        token = uuid.uuid4().hex[:8]
        self.path = self.directory / (
            f"{label}-{self.pid}-{token}{TRACE_FILE_SUFFIX}"
        )
        # Span ids carry the per-tracer token, not just the pid: two
        # tracers can live in one process (worker contexts activated
        # in-process, pid reuse across a long fan-out), and a bare
        # pid.seq would collide and knot the reassembled tree.
        self._id_prefix = f"{self.pid:x}.{token}"
        self._file = open(self.path, "w", encoding="utf-8")
        self._lock = threading.Lock()
        self._seq = 0
        self._local = threading.local()
        self._thread_aliases: Dict[int, int] = {}
        self._span_totals: Dict[str, list] = {}
        self._counter_totals: Dict[str, float] = {}
        self._orphan_counters: Dict[str, float] = {}
        self.closed = False
        self._write({
            "kind": "meta",
            "schema": SCHEMA_VERSION,
            "trace": self.trace_id,
            "pid": self.pid,
            "parent": self.parent_id,
            "label": self.label,
            "created": time.time(),
        })

    # -- plumbing ----------------------------------------------------------

    def _write(self, record: dict) -> None:
        with self._lock:
            if self._file is None:
                return
            self._file.write(json.dumps(record, default=str) + "\n")
            self._file.flush()

    def _next_span_id(self) -> str:
        with self._lock:
            self._seq += 1
            return f"{self._id_prefix}.{self._seq:x}"

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _thread_alias(self) -> int:
        ident = threading.get_ident()
        alias = self._thread_aliases.get(ident)
        if alias is None:
            with self._lock:
                alias = self._thread_aliases.setdefault(
                    ident, len(self._thread_aliases)
                )
        return alias

    # -- span lifecycle ----------------------------------------------------

    def span(self, name: str, **attrs) -> Span:
        stack = self._stack()
        parent = stack[-1].span_id if stack else self.parent_id
        return Span(self, name, parent, self._thread_alias(), **attrs)

    def _begin(self, span: Span) -> None:
        self._stack().append(span)

    def _finish(self, span: Span) -> None:
        duration = time.perf_counter() - span._start_perf
        stack = self._stack()
        # Identity scan instead of a blind pop: a span a generator holds
        # open across its yields (Stage I's pass span) can close out of
        # LIFO order.
        for i in range(len(stack) - 1, -1, -1):
            if stack[i] is span:
                del stack[i]
                break
        record = {
            "kind": "span",
            "trace": self.trace_id,
            "id": span.span_id,
            "parent": span.parent_id,
            "name": span.name,
            "start": span.start_unix,
            "dur": duration,
            "pid": self.pid,
            "tid": span._tid,
        }
        if span.attrs:
            record["attrs"] = span.attrs
        if span.counters:
            record["counters"] = span.counters
        self._write(record)
        with self._lock:
            total = self._span_totals.setdefault(span.name, [0, 0.0])
            total[0] += 1
            total[1] += duration
            for key, value in span.counters.items():
                self._counter_totals[key] = (
                    self._counter_totals.get(key, 0) + value
                )

    def add(self, name: str, value: float = 1) -> None:
        """Bump a counter outside any span (flushed on close)."""
        stack = self._stack()
        if stack:
            stack[-1].add(name, value)
            return
        with self._lock:
            self._orphan_counters[name] = self._orphan_counters.get(name, 0) + value
            self._counter_totals[name] = self._counter_totals.get(name, 0) + value

    # -- aggregate views ---------------------------------------------------

    def snapshot(self) -> dict:
        """Aggregate span/counter totals so far (for manifest stamping)."""
        with self._lock:
            return {
                "spans": {
                    name: {"calls": calls, "seconds": seconds}
                    for name, (calls, seconds) in self._span_totals.items()
                },
                "counters": dict(self._counter_totals),
            }

    def delta(self, before: dict) -> dict:
        """What happened since ``before`` (an earlier :meth:`snapshot`)."""
        now = self.snapshot()
        spans = {}
        for name, total in now["spans"].items():
            prior = before["spans"].get(name, {"calls": 0, "seconds": 0.0})
            calls = total["calls"] - prior["calls"]
            if calls > 0:
                spans[name] = {
                    "calls": calls,
                    "seconds": total["seconds"] - prior["seconds"],
                }
        counters = {}
        for name, value in now["counters"].items():
            diff = value - before["counters"].get(name, 0)
            if diff:
                counters[name] = diff
        return {"spans": spans, "counters": counters}

    # -- teardown ----------------------------------------------------------

    def close(self) -> None:
        if self.closed:
            return
        self.closed = True
        if self._orphan_counters:
            self._write({
                "kind": "counters",
                "trace": self.trace_id,
                "pid": self.pid,
                "counters": dict(self._orphan_counters),
            })
        with self._lock:
            if self._file is not None:
                self._file.close()
                self._file = None

    def _abandon(self) -> None:
        """Forget the sink without touching it (forked child's view)."""
        self.closed = True
        self._file = None


# -- module-level active tracer -------------------------------------------

_ACTIVE: Optional[Tracer] = None


def active() -> Optional[Tracer]:
    """The process's active tracer, or ``None`` when tracing is off."""
    return _ACTIVE


def span(name: str, **attrs):
    """Open a span under the active tracer, or ``NULL_SPAN`` when off.

    The disabled path is the hot path: one global read, one ``is None``
    check, return a shared singleton.
    """
    tracer = _ACTIVE
    if tracer is None:
        return NULL_SPAN
    return tracer.span(name, **attrs)


def add(name: str, value: float = 1) -> None:
    """Bump a counter on the current span (no-op when tracing is off)."""
    tracer = _ACTIVE
    if tracer is not None:
        tracer.add(name, value)


def current_context(label: str = "worker") -> Optional[TraceContext]:
    """Capture the active tracer as a picklable worker context.

    Parents the worker under the innermost open span on the calling
    thread (or the tracer's own parent when none is open).
    """
    tracer = _ACTIVE
    if tracer is None:
        return None
    stack = tracer._stack()
    parent = stack[-1].span_id if stack else tracer.parent_id
    return TraceContext(
        directory=str(tracer.directory),
        trace_id=tracer.trace_id,
        parent_id=parent,
        label=label,
    )


def activate(directory: str | Path, *, label: str = "main") -> Tracer:
    """Start tracing into ``directory``; replaces any active tracer."""
    global _ACTIVE
    if _ACTIVE is not None:
        _ACTIVE.close()
    _ACTIVE = Tracer(directory, label=label)
    return _ACTIVE


def activate_context(context: Optional[TraceContext]) -> Optional[Tracer]:
    """Worker-side activation from a shipped :class:`TraceContext`.

    ``None`` is accepted and ignored so pool initializers can pass the
    context through unconditionally.  Registers an ``atexit`` hook so
    long-lived pool workers flush their orphan counters on interpreter
    exit.
    """
    global _ACTIVE
    if context is None:
        return None
    if _ACTIVE is not None:
        _ACTIVE.close()
    _ACTIVE = Tracer(
        context.directory,
        trace_id=context.trace_id,
        parent_id=context.parent_id,
        label=context.label,
    )
    atexit.register(deactivate)
    return _ACTIVE


def deactivate() -> None:
    """Stop tracing and close the sink (idempotent)."""
    global _ACTIVE
    if _ACTIVE is not None:
        _ACTIVE.close()
        _ACTIVE = None


def _forget_in_child() -> None:
    # A forked child inherits the parent's open file object; writing to
    # it would interleave with the parent.  Abandon (not close: closing
    # would flush buffered parent state twice) and start clean — pool
    # initializers re-activate from a TraceContext.
    global _ACTIVE
    if _ACTIVE is not None:
        _ACTIVE._abandon()
        _ACTIVE = None


if hasattr(os, "register_at_fork"):  # pragma: no branch
    os.register_at_fork(after_in_child=_forget_in_child)
