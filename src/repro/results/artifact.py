"""Typed experiment artifacts.

The repo's deliverable used to be rendered text; this module makes it
*data*.  An :class:`ExperimentResult` carries named scalar metrics (each
optionally annotated with the paper's expected value and a tolerance
band), typed tables (the rows that used to go straight into the ASCII
renderer), and a :class:`RunManifest` recording the provenance of the
run — seed, scale, worker count, config hashes, package version — so a
stored ``result.json`` is a verifiable, reproducible statement rather
than prose.

Everything here is plain stdlib: no dependency on the analyzers, the
calibration constants, or numpy, so any layer (calibration, sim, core,
cli) may import it without cycles.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field, is_dataclass, replace
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

Scalar = Union[int, float, bool, str]

#: Version tag embedded in every serialized result.
SCHEMA_VERSION = "repro.results/1"


def config_digest(payload: object) -> str:
    """Short stable digest of a configuration object (dataclass or dict)."""
    if is_dataclass(payload) and not isinstance(payload, type):
        payload = asdict(payload)
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"),
                           default=str)
    return hashlib.sha256(canonical.encode()).hexdigest()[:12]


# ---------------------------------------------------------------------------
# Expectations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Tolerance:
    """A band around an expected value.

    ``rel`` and ``abs`` each contribute a slack (``rel`` as a fraction of
    the expected magnitude); the effective slack is the larger of the two,
    optionally widened by a ``relax`` factor at check time.  ``kind``
    selects two-sided bands or one-sided bounds (``min``: measured must
    not fall below expected minus slack; ``max``: the mirror).
    """

    rel: Optional[float] = None
    abs: Optional[float] = None
    kind: str = "two-sided"

    def __post_init__(self) -> None:
        if self.kind not in ("two-sided", "min", "max"):
            raise ValueError(f"unknown tolerance kind {self.kind!r}")
        if self.rel is None and self.abs is None:
            raise ValueError("a tolerance needs rel and/or abs slack")
        for name, value in (("rel", self.rel), ("abs", self.abs)):
            if value is not None and value < 0:
                raise ValueError(f"{name} slack must be non-negative")

    def slack(self, expected: float, relax: float = 1.0) -> float:
        slack = 0.0
        if self.rel is not None:
            slack = max(slack, self.rel * abs(expected))
        if self.abs is not None:
            slack = max(slack, self.abs)
        return slack * relax

    def bounds(
        self, expected: float, relax: float = 1.0
    ) -> Tuple[Optional[float], Optional[float]]:
        """(lower, upper) acceptance bounds; ``None`` means unbounded."""
        slack = self.slack(expected, relax)
        if self.kind == "min":
            return expected - slack, None
        if self.kind == "max":
            return None, expected + slack
        return expected - slack, expected + slack

    def to_dict(self) -> Dict[str, object]:
        return {"rel": self.rel, "abs": self.abs, "kind": self.kind}

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "Tolerance":
        return cls(rel=data.get("rel"), abs=data.get("abs"),
                   kind=str(data.get("kind", "two-sided")))


@dataclass(frozen=True)
class PaperExpectation:
    """One published number, as a machine-checkable record.

    ``scales_with_window`` marks counts that grow with the observation
    window (Table 1 totals, job counts): their reference value multiplies
    by the dataset's window scale before comparison.
    """

    value: float
    tolerance: Tolerance
    source: str = ""
    scales_with_window: bool = False
    note: str = ""

    def scaled(self, scale: float) -> "PaperExpectation":
        """Resolve the expectation for a scaled observation window."""
        if not self.scales_with_window:
            return self
        return replace(self, value=self.value * scale, scales_with_window=False)

    def to_dict(self) -> Dict[str, object]:
        return {
            "value": self.value,
            "tolerance": self.tolerance.to_dict(),
            "source": self.source,
            "scales_with_window": self.scales_with_window,
            "note": self.note,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "PaperExpectation":
        return cls(
            value=float(data["value"]),  # type: ignore[arg-type]
            tolerance=Tolerance.from_dict(data["tolerance"]),  # type: ignore[arg-type]
            source=str(data.get("source", "")),
            scales_with_window=bool(data.get("scales_with_window", False)),
            note=str(data.get("note", "")),
        )


# ---------------------------------------------------------------------------
# Metrics and tables
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Metric:
    """One named measured value.

    ``support`` is the sample size the value was estimated from (event or
    incident count); the verifier skips tolerance checks whose support is
    too small to be meaningful instead of failing on noise.
    """

    name: str
    value: Scalar
    unit: str = ""
    expectation: Optional[PaperExpectation] = None
    support: Optional[int] = None

    @property
    def numeric(self) -> float:
        if isinstance(self.value, bool):
            return 1.0 if self.value else 0.0
        if isinstance(self.value, (int, float)):
            return float(self.value)
        raise TypeError(f"metric {self.name!r} has non-numeric value {self.value!r}")

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "value": self.value,
            "unit": self.unit,
            "expectation": self.expectation.to_dict() if self.expectation else None,
            "support": self.support,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "Metric":
        expectation = data.get("expectation")
        return cls(
            name=str(data["name"]),
            value=data["value"],  # type: ignore[arg-type]
            unit=str(data.get("unit", "")),
            expectation=(
                PaperExpectation.from_dict(expectation)  # type: ignore[arg-type]
                if expectation is not None else None
            ),
            support=(
                int(data["support"]) if data.get("support") is not None else None  # type: ignore[arg-type]
            ),
        )


@dataclass(frozen=True)
class ResultTable:
    """A typed table: the cells that used to feed the ASCII renderer.

    Cells keep their Python types (ints render with separators, floats
    with fixed precision, strings verbatim), which is what makes the text
    rendering reproducible from the serialized artifact.
    """

    title: str
    headers: Tuple[str, ...]
    rows: Tuple[Tuple[Scalar, ...], ...]
    precision: int = 2

    def __post_init__(self) -> None:
        for row in self.rows:
            if len(row) != len(self.headers):
                raise ValueError(
                    f"table {self.title!r}: row has {len(row)} cells for "
                    f"{len(self.headers)} columns"
                )

    def to_dict(self) -> Dict[str, object]:
        return {
            "title": self.title,
            "headers": list(self.headers),
            "rows": [list(row) for row in self.rows],
            "precision": self.precision,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "ResultTable":
        return cls(
            title=str(data["title"]),
            headers=tuple(data["headers"]),  # type: ignore[arg-type]
            rows=tuple(tuple(row) for row in data["rows"]),  # type: ignore[union-attr]
            precision=int(data.get("precision", 2)),  # type: ignore[arg-type]
        )


# ---------------------------------------------------------------------------
# Provenance
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RunManifest:
    """Provenance of one run: everything needed to reproduce it.

    ``trace`` is observability metadata (trace id plus a per-span
    wall-time summary), not provenance: it varies run to run even for
    identical configurations, so it is **excluded** from the default
    serialization and never participates in ``config_hashes`` or any
    identity gate.  Trace-stamped manifests (``to_dict(with_trace=True)``)
    are written only into the trace directory itself.
    """

    run_id: str
    seed: Optional[int] = None
    scale: Optional[float] = None
    workers: Optional[int] = None
    window_hours: Optional[float] = None
    n_nodes: Optional[int] = None
    n_gpus: Optional[int] = None
    engine: Optional[str] = None
    dataset: Optional[str] = None
    config_hashes: Mapping[str, str] = field(default_factory=dict)
    package_version: str = ""
    created_unix: Optional[float] = None
    trace: Optional[Mapping[str, object]] = None

    def to_dict(self, *, with_trace: bool = False) -> Dict[str, object]:
        data = asdict(self)
        data["config_hashes"] = dict(self.config_hashes)
        if with_trace and self.trace is not None:
            data["trace"] = dict(self.trace)
        else:
            data.pop("trace", None)
        return data

    def stamped(self, trace: Mapping[str, object]) -> "RunManifest":
        """A copy carrying a trace summary (see class docstring)."""
        return replace(self, trace=dict(trace))

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "RunManifest":
        known = {f: data.get(f) for f in (
            "run_id", "seed", "scale", "workers", "window_hours", "n_nodes",
            "n_gpus", "engine", "dataset", "package_version", "created_unix",
            "trace",
        )}
        known["config_hashes"] = dict(data.get("config_hashes") or {})
        known["run_id"] = str(known["run_id"])
        known["package_version"] = str(known.get("package_version") or "")
        return cls(**known)  # type: ignore[arg-type]


# ---------------------------------------------------------------------------
# The artifact
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExperimentResult:
    """One experiment's outcome as structured, verifiable data.

    ``renderer`` names the registered text renderer
    (:mod:`repro.results.render`) that reproduces the paper-style report
    byte-for-byte from this object alone.
    """

    experiment_id: str
    paper_artifact: str
    title: str
    renderer: str
    metrics: Tuple[Metric, ...] = ()
    tables: Tuple[ResultTable, ...] = ()
    manifest: Optional[RunManifest] = None

    def __post_init__(self) -> None:
        names = [m.name for m in self.metrics]
        if len(names) != len(set(names)):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise ValueError(f"duplicate metric names: {dupes}")

    # -- access ----------------------------------------------------------

    def metric(self, name: str) -> Metric:
        for metric in self.metrics:
            if metric.name == name:
                return metric
        raise KeyError(f"no metric {name!r} in {self.experiment_id}")

    def value(self, name: str) -> Scalar:
        return self.metric(name).value

    @property
    def values(self) -> Dict[str, Scalar]:
        return {m.name: m.value for m in self.metrics}

    def expected_metrics(self) -> List[Metric]:
        """Metrics carrying a paper expectation (the verifiable subset)."""
        return [m for m in self.metrics if m.expectation is not None]

    def table(self, title_prefix: str = "") -> ResultTable:
        for table in self.tables:
            if table.title.startswith(title_prefix):
                return table
        raise KeyError(f"no table starting with {title_prefix!r}")

    def with_manifest(self, manifest: RunManifest) -> "ExperimentResult":
        return replace(self, manifest=manifest)

    # -- rendering -------------------------------------------------------

    def render_text(self) -> str:
        from repro.results.render import render_text

        return render_text(self)

    def render_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=False)

    def render_svg(self) -> Optional[str]:
        from repro.results.render import render_svg

        return render_svg(self)

    # -- serialization ---------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        return {
            "schema": SCHEMA_VERSION,
            "experiment_id": self.experiment_id,
            "paper_artifact": self.paper_artifact,
            "title": self.title,
            "renderer": self.renderer,
            "metrics": [m.to_dict() for m in self.metrics],
            "tables": [t.to_dict() for t in self.tables],
            "manifest": self.manifest.to_dict() if self.manifest else None,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "ExperimentResult":
        problems = validate_result_dict(data)
        if problems:
            raise ValueError("invalid ExperimentResult payload: "
                             + "; ".join(problems))
        manifest = data.get("manifest")
        return cls(
            experiment_id=str(data["experiment_id"]),
            paper_artifact=str(data["paper_artifact"]),
            title=str(data["title"]),
            renderer=str(data["renderer"]),
            metrics=tuple(
                Metric.from_dict(m) for m in data["metrics"]  # type: ignore[union-attr]
            ),
            tables=tuple(
                ResultTable.from_dict(t) for t in data["tables"]  # type: ignore[union-attr]
            ),
            manifest=(
                RunManifest.from_dict(manifest)  # type: ignore[arg-type]
                if manifest is not None else None
            ),
        )

    @classmethod
    def from_json(cls, text: str) -> "ExperimentResult":
        return cls.from_dict(json.loads(text))


# ---------------------------------------------------------------------------
# Schema validation
# ---------------------------------------------------------------------------

#: Human-readable schema statement (documented in docs/results.md).
RESULT_SCHEMA: Dict[str, object] = {
    "schema": SCHEMA_VERSION,
    "experiment_id": "str",
    "paper_artifact": "str",
    "title": "str",
    "renderer": "str",
    "metrics": [{
        "name": "str",
        "value": "int|float|bool|str",
        "unit": "str",
        "support": "int|null",
        "expectation": {
            "value": "float",
            "tolerance": {"rel": "float|null", "abs": "float|null",
                          "kind": "two-sided|min|max"},
            "source": "str",
            "scales_with_window": "bool",
            "note": "str",
        },
    }],
    "tables": [{"title": "str", "headers": ["str"],
                "rows": [["int|float|bool|str"]], "precision": "int"}],
    "manifest": {
        "run_id": "str", "seed": "int|null", "scale": "float|null",
        "workers": "int|null", "window_hours": "float|null",
        "n_nodes": "int|null", "n_gpus": "int|null", "engine": "str|null",
        "dataset": "str|null", "config_hashes": {"<name>": "str"},
        "package_version": "str", "created_unix": "float|null",
        # "trace" (trace id + per-span summary) appears only in
        # trace-directory manifests (to_dict(with_trace=True)) — never in
        # result.json / manifest.json, never in config_hashes.
    },
}


def _check(problems: List[str], condition: bool, message: str) -> None:
    if not condition:
        problems.append(message)


def validate_result_dict(data: Mapping[str, object]) -> List[str]:
    """Validate a serialized result against the artifact schema.

    Returns a list of problems (empty = valid), so callers can either
    gate on emptiness or report every issue at once.
    """
    problems: List[str] = []
    if not isinstance(data, Mapping):
        return ["payload is not a mapping"]
    _check(problems, data.get("schema") == SCHEMA_VERSION,
           f"schema must be {SCHEMA_VERSION!r}, got {data.get('schema')!r}")
    for key in ("experiment_id", "paper_artifact", "title", "renderer"):
        _check(problems, isinstance(data.get(key), str) and data.get(key),
               f"{key} must be a non-empty string")

    metrics = data.get("metrics")
    if not isinstance(metrics, Sequence) or isinstance(metrics, (str, bytes)):
        problems.append("metrics must be a list")
        metrics = []
    for i, metric in enumerate(metrics):
        where = f"metrics[{i}]"
        if not isinstance(metric, Mapping):
            problems.append(f"{where} is not a mapping")
            continue
        _check(problems, isinstance(metric.get("name"), str) and metric["name"],
               f"{where}.name must be a non-empty string")
        _check(problems, isinstance(metric.get("value"), (int, float, bool, str)),
               f"{where}.value must be a scalar")
        support = metric.get("support")
        _check(problems,
               support is None or (isinstance(support, int)
                                   and not isinstance(support, bool)),
               f"{where}.support must be an int or null")
        expectation = metric.get("expectation")
        if expectation is not None:
            if not isinstance(expectation, Mapping):
                problems.append(f"{where}.expectation is not a mapping")
                continue
            _check(problems,
                   isinstance(expectation.get("value"), (int, float))
                   and not isinstance(expectation.get("value"), bool),
                   f"{where}.expectation.value must be a number")
            tolerance = expectation.get("tolerance")
            if not isinstance(tolerance, Mapping):
                problems.append(f"{where}.expectation.tolerance is not a mapping")
            else:
                _check(problems,
                       tolerance.get("kind") in ("two-sided", "min", "max"),
                       f"{where}.expectation.tolerance.kind is invalid")
                _check(problems,
                       tolerance.get("rel") is not None
                       or tolerance.get("abs") is not None,
                       f"{where}.expectation.tolerance needs rel and/or abs")

    tables = data.get("tables")
    if not isinstance(tables, Sequence) or isinstance(tables, (str, bytes)):
        problems.append("tables must be a list")
        tables = []
    for i, table in enumerate(tables):
        where = f"tables[{i}]"
        if not isinstance(table, Mapping):
            problems.append(f"{where} is not a mapping")
            continue
        _check(problems, isinstance(table.get("title"), str),
               f"{where}.title must be a string")
        headers = table.get("headers")
        rows = table.get("rows")
        ok_headers = (isinstance(headers, Sequence)
                      and not isinstance(headers, (str, bytes))
                      and all(isinstance(h, str) for h in headers))
        _check(problems, ok_headers, f"{where}.headers must be a list of strings")
        if not isinstance(rows, Sequence) or isinstance(rows, (str, bytes)):
            problems.append(f"{where}.rows must be a list")
            continue
        for j, row in enumerate(rows):
            if (not isinstance(row, Sequence) or isinstance(row, (str, bytes))
                    or (ok_headers and len(row) != len(headers))):  # type: ignore[arg-type]
                problems.append(f"{where}.rows[{j}] does not match the headers")
            elif not all(isinstance(c, (int, float, bool, str)) for c in row):
                problems.append(f"{where}.rows[{j}] has a non-scalar cell")

    manifest = data.get("manifest")
    if manifest is not None:
        if not isinstance(manifest, Mapping):
            problems.append("manifest is not a mapping")
        else:
            _check(problems,
                   isinstance(manifest.get("run_id"), str) and manifest["run_id"],
                   "manifest.run_id must be a non-empty string")
            hashes = manifest.get("config_hashes")
            _check(problems, hashes is None or isinstance(hashes, Mapping),
                   "manifest.config_hashes must be a mapping")
    return problems
