"""Stamp run manifests with trace summaries — outside the identity path.

``stamp_result`` attaches ``{trace id, spans, counters}`` to a result's
manifest and mirrors the stamped manifest into
``<trace dir>/manifests/<experiment id>.manifest.json``.  The returned
result still serializes byte-identically to an untraced run, because
``RunManifest.trace`` is excluded from default serialization — the
stamped view lives only in the trace directory.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING, Optional

from repro.obs.core import Tracer, active

if TYPE_CHECKING:  # pragma: no cover
    from repro.results.artifact import ExperimentResult

#: Subdirectory of a trace dir holding trace-stamped manifests.
MANIFEST_SUBDIR = "manifests"


def stamp_result(
    result: "ExperimentResult",
    *,
    tracer: Optional[Tracer] = None,
    before: Optional[dict] = None,
) -> "ExperimentResult":
    """Attach this run's span/counter delta to the result's manifest.

    ``before`` is a :meth:`Tracer.snapshot` taken when the experiment
    started; the stamp covers only what happened in between.  A no-op
    (returns ``result`` unchanged) when tracing is off or the result has
    no manifest.
    """
    tracer = tracer or active()
    if tracer is None or result.manifest is None:
        return result
    summary = tracer.delta(before) if before is not None else tracer.snapshot()
    stamped = result.manifest.stamped({
        "trace_id": tracer.trace_id,
        "spans": summary["spans"],
        "counters": summary["counters"],
    })
    result = result.with_manifest(stamped)
    write_trace_manifest(result, tracer)
    return result


def write_trace_manifest(result: "ExperimentResult", tracer: Tracer) -> Path:
    """Write the trace-stamped manifest into the trace directory."""
    directory = Path(tracer.directory) / MANIFEST_SUBDIR
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{result.experiment_id}.manifest.json"
    assert result.manifest is not None
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(result.manifest.to_dict(with_trace=True), handle,
                  indent=2, sort_keys=False)
        handle.write("\n")
    return path
