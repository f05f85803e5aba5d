"""repro.obs: run tracing and self-instrumentation.

Hierarchical spans and counters with a near-zero-overhead disabled
default, per-process JSONL sinks, picklable contexts for process-pool
fan-outs, trace-directory aggregation (summary / tree / Chrome
trace-event export), manifest stamping that stays out of every identity
gate, and :class:`CounterSet` for long-running services' ``/metrics``.

Instrumenting code imports the module and calls the two hot-path
functions — nothing else::

    from repro import obs

    with obs.span("store.segment.scan", segment=path.name) as s:
        s.add("store.rows_scanned", n)

CLI entry points activate/deactivate; workers activate from a shipped
:class:`TraceContext` in their pool initializer.
"""

from repro.obs.core import (
    NULL_SPAN,
    SCHEMA_VERSION,
    TRACE_FILE_SUFFIX,
    Span,
    TraceContext,
    Tracer,
    activate,
    activate_context,
    active,
    add,
    current_context,
    deactivate,
    span,
)
from repro.obs.export import to_chrome_events, write_chrome_trace
from repro.obs.metrics import CounterSet
from repro.obs.reader import (
    TraceData,
    build_tree,
    read_trace_dir,
    render_summary,
    render_tree,
    summarize,
)
from repro.obs.schema import validate_record
from repro.obs.stamp import stamp_result, write_trace_manifest

__all__ = [
    "NULL_SPAN",
    "SCHEMA_VERSION",
    "TRACE_FILE_SUFFIX",
    "Span",
    "TraceContext",
    "Tracer",
    "activate",
    "activate_context",
    "active",
    "add",
    "current_context",
    "deactivate",
    "span",
    "to_chrome_events",
    "write_chrome_trace",
    "CounterSet",
    "TraceData",
    "build_tree",
    "read_trace_dir",
    "render_summary",
    "render_tree",
    "summarize",
    "validate_record",
    "stamp_result",
    "write_trace_manifest",
]
