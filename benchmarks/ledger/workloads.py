"""The five workloads: the command each runs, its inputs and its walk.

Why each exists is recorded once, in ``BENCHMARK.json``.

Every workload runs one program invocation per operation, in its own
process, from a work directory holding the generated inputs (paths are
relative, so outputs carry no directory names).  ``walk`` repeats the
command in-process as calls into the layers' public functions, each wrapped
in a harness span, in the order the command makes them:

* spans under the root ``walk`` mirror the command, so their self times
  add up to the command's time minus start-up and output;
* spans under the root ``probe`` are comparisons the command does not make
  (a serial run beside a parallel one), used for speed-ups and shares.

A walk returns the counts it observed, plus ``stdout`` when it can
reproduce the command's output byte for byte.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, List, Optional, Tuple

from benchmarks.ledger.inputs import Size, make_queries, write_dataset
from benchmarks.ledger.spans import Recorder

CLI = ("-m", "repro.cli")
#: Replicas the sim-sweep set-up runs serially in-process as the oracle the
#: command's parallel output is checked against.
ORACLE_REPLICAS = 4


@dataclass(frozen=True)
class Workload:
    name: str
    #: ``(work, seed, size, recorder) -> ctx``: write the inputs into ``work``.
    setup: Callable[[Path, int, Size, Recorder], dict]
    #: ``(ctx, trace_dir) -> argv`` after the interpreter.
    argv: Callable[[dict, Optional[str]], List[str]]
    #: ``(ctx, recorder) -> counts``: the in-process layer walk, run from
    #: the work directory.
    walk: Callable[[dict, Recorder], dict]
    expect_rc: Tuple[int, ...] = (0,)
    #: Processes the command keeps busy at once: the CPUs it is pinned to.
    cpus: int = 1
    #: Work-directory entries an operation creates; removed before each one.
    op_outputs: Tuple[str, ...] = ()
    #: Extra arguments for the untimed warm-up operation only.
    warmup_args: Tuple[str, ...] = ()
    #: ``(work, ctx, rc, stdout) -> problems`` after every operation.
    check: Optional[Callable[[Path, dict, int, str], List[str]]] = None
    #: ``stdout -> (digest, queries, failed queries)``; default: hash stdout.
    parse: Optional[Callable[[str], Tuple[str, int, int]]] = None


def _traced(args: List[str], trace_dir: Optional[str]) -> List[str]:
    """``args`` with ``--trace DIR`` after the command name (for ``replay``,
    before its subcommand, where the CLI expects it)."""
    if trace_dir is None:
        return args
    return args[:1] + ["--trace", trace_dir] + args[1:]


def _d01(work: Path, seed: int, size: Size, recorder: Recorder) -> dict:
    facts = write_dataset(work / "D01", seed, size, recorder)
    return {"seed": seed, "size": size, "facts": facts}


def _study(ctx: dict, workers: int, jobs: int):
    from repro.session import RunConfig, Session

    return Session(RunConfig(
        dataset=Path("D01"), scale=ctx["size"].scale, workers=workers, jobs=jobs,
    ))


# -- study-serial ---------------------------------------------------------


def _study_argv(ctx: dict, trace_dir: Optional[str]) -> List[str]:
    return [*CLI, *_traced(
        ["study", "--dataset", "D01", "--scale", str(ctx["size"].scale),
         "--workers", "1", "--jobs", "1"], trace_dir)]


def _study_walk(ctx: dict, rec: Recorder) -> dict:
    from repro.cli.study import STUDY_SEQUENCE

    with rec.span("walk"):
        with rec.span("session.study_build"):
            session = _study(ctx, workers=1, jobs=1)
            study = session.study
        with rec.span("pipeline.extract"):
            records = study.records
        with rec.span("core.coalesce"):
            errors = study.errors
        results = []
        for identifier in STUDY_SEQUENCE:
            with rec.span(f"experiment.{identifier}"):
                results.append(session.run(identifier))
        with rec.span("results.render"):
            text = "\n\n".join(r.render_text() for r in results)
    return {
        "pipeline.records": len(records),
        "pipeline.records_per_s": len(records) / rec.total("pipeline.extract"),
        "core.coalesce_errors": len(errors),
        "core.coalesce_ratio": len(records) / len(errors),
        "stdout": text + "\n",
    }


# -- verify-parallel ------------------------------------------------------


def _verify_argv(ctx: dict, trace_dir: Optional[str]) -> List[str]:
    return [*CLI, *_traced(
        ["verify", "--dataset", "D01", "--scale", str(ctx["size"].scale),
         "--tolerance-scale", "2", "--workers", "2", "--jobs", "2"], trace_dir)]


def _verify_check(work: Path, ctx: dict, rc: int, stdout: str) -> List[str]:
    # Exit 1 is a paper miss, a result; it must agree with the table.
    if ("\nFAIL:" in stdout) != (rc == 1):
        return [f"exit {rc} disagrees with the verify table"]
    return []


def _verify_walk(ctx: dict, rec: Recorder) -> dict:
    from repro.experiments import verified_experiments
    from repro.pipeline import FileSetSource, extract_records
    from repro.results import DEFAULT_MIN_SUPPORT, verify_results

    identifiers = [e.identifier for e in verified_experiments()]
    with rec.span("walk"):
        with rec.span("session.study_build"):
            session = _study(ctx, workers=2, jobs=2)
            study = session.study
        with rec.span("pipeline.extract"):
            records = study.records
        with rec.span("core.coalesce"):
            errors = study.errors
        with rec.span("session.fanout"):
            results = session.run_many(identifiers)
        with rec.span("results.render"):
            report = verify_results(
                results, tolerance_scale=2.0, min_support=DEFAULT_MIN_SUPPORT
            )
            report.render_table()
    with rec.span("probe"):
        with rec.span("probe.extract_w1"):
            serial_records = extract_records(FileSetSource(Path("D01/logs")), workers=1)
        for identifier in identifiers:
            with rec.span(f"experiment.{identifier}"):
                session.run(identifier)
    serial_experiments = sum(rec.total(f"experiment.{i}") for i in identifiers)
    return {
        "pipeline.records": len(records),
        "pipeline.records_per_s": len(records) / rec.total("pipeline.extract"),
        "pipeline.extract_w2_speedup":
            rec.total("probe.extract_w1") / rec.total("pipeline.extract"),
        "core.coalesce_errors": len(errors),
        "core.coalesce_ratio": len(records) / len(errors),
        "session.fanout_speedup": serial_experiments / rec.total("session.fanout"),
        "results.verify_passed": report.n_pass,
        "results.verify_failed": report.n_fail,
        "results.verify_skipped": report.n_skip,
        "problems": [] if serial_records == records
        else ["extraction differs between 1 and 2 workers"],
    }


# -- store-mixed ----------------------------------------------------------


def _store_setup(work: Path, seed: int, size: Size, rec: Recorder) -> dict:
    ctx = _d01(work, seed, size, rec)
    with rec.span("inputs.queries"):
        queries = make_queries(ctx["facts"], seed, size.queries)
        (work / "queries.json").write_text(json.dumps(queries), encoding="utf-8")
    ctx["queries"] = queries
    return ctx


def _store_argv(ctx: dict, trace_dir: Optional[str]) -> List[str]:
    args = ["-m", "benchmarks.ledger.store_client", "D01/logs", "S", "queries.json"]
    return args + (["--trace", trace_dir] if trace_dir is not None else [])


def _store_parse(stdout: str) -> Tuple[str, int, int]:
    result = json.loads(stdout.strip().splitlines()[-1])
    return result["digest"], result["queries"], result["failed"] + result["wrong"]


def _store_walk(ctx: dict, rec: Recorder) -> dict:
    from benchmarks.ledger.inputs import SEGMENT_RECORDS
    from benchmarks.ledger.stats import percentile, tail_percentile
    from benchmarks.ledger.store_client import answer
    from repro.pipeline import FileSetSource, extract_records
    from repro.store import EventStore

    latencies = []
    digest = hashlib.sha256()
    with rec.span("walk"):
        with rec.span("pipeline.extract"):
            records = extract_records(FileSetSource(Path("D01/logs")), workers=1)
        with rec.span("store.append"):
            EventStore.create(Path("W")).append(records, segment_records=SEGMENT_RECORDS)
        with rec.span("store.open"):
            store = EventStore.open(Path("W"))
        for spec in ctx["queries"]:
            with rec.span("store.query") as span:
                answer(store, spec, digest)
            latencies.append(span["end"] - span["start"])
    ingest = rec.total("pipeline.extract") + rec.total("store.append")
    tail = tail_percentile(latencies)
    n_bytes = sum(s.n_bytes for s in store.manifest.segments)
    return {
        "pipeline.records": len(records),
        "pipeline.records_per_s": len(records) / rec.total("pipeline.extract"),
        "store.ingest_records_per_s": store.n_records / ingest,
        "store.queries_per_s": len(latencies) / sum(latencies),
        "store.query_tail_over_p50":
            (tail[1] if tail else max(latencies)) / percentile(latencies, 50),
        "store.segments": store.n_segments,
        "store.bytes_per_record": n_bytes / store.n_records,
    }


# -- replay-backtest ------------------------------------------------------


def _replay_setup(work: Path, seed: int, size: Size, rec: Recorder) -> dict:
    from repro.pipeline import FileSetSource
    from repro.store import EventStore

    ctx = _d01(work, seed, size, rec)
    with rec.span("store.build"):
        EventStore.create(work / "E01").ingest(
            FileSetSource(work / "D01" / "logs"), workers=1
        )
    return ctx


def _replay_argv(ctx: dict, trace_dir: Optional[str]) -> List[str]:
    return [*CLI, *_traced(["replay", "backtest", "--store", "E01"], trace_dir)]


def _replay_walk(ctx: dict, rec: Recorder) -> dict:
    from repro.replay import BacktestConfig, ReplayEngine, ReplayPacer, run_backtest
    from repro.store import EventStore, ReplayCursor

    window = 6 * 3600.0  # the CLI's --window-hours default
    with rec.span("walk"):
        with rec.span("store.open"):
            store = EventStore.open(Path("E01"))
        with rec.span("replay.backtest"):
            result = run_backtest(
                lambda: ReplayCursor(store, window_seconds=window).iter_records(),
                BacktestConfig(horizon_seconds=3600.0),
                pacer=ReplayPacer(None),
                source_label="store:E01",
                source_fingerprint=store.content_hash(),
            )
        with rec.span("results.render"):
            text = result.render_text()
    with rec.span("probe"):
        with rec.span("replay.scan"):
            records = list(ReplayCursor(store, window_seconds=window).iter_records())
        with rec.span("replay.engine"):
            outcome = ReplayEngine().replay(records)
    return {
        "replay.records_per_s": outcome.records / rec.total("replay.engine"),
        "replay.alerts": len(outcome.alerts),
        "replay.onsets": outcome.onsets,
        "stdout": text + "\n",
    }


# -- sim-sweep ------------------------------------------------------------


def _sweep_config(ctx: dict, replicas: int):
    from repro.sim import SweepConfig

    return SweepConfig(
        scenario="a100-512", policy="spare:4", replicas=replicas,
        seed=ctx["seed"], useful_hours=168.0,
    )


def _sim_setup(work: Path, seed: int, size: Size, rec: Recorder) -> dict:
    from repro.sim import run_sweep

    ctx = {"seed": seed, "size": size}
    with rec.span("sim.oracle"):
        oracle = run_sweep(_sweep_config(ctx, ORACLE_REPLICAS), workers=1)
    ctx["oracle"] = [json.loads(json.dumps(m.to_dict())) for m in oracle.runs]
    return ctx


def _sim_argv(ctx: dict, trace_dir: Optional[str]) -> List[str]:
    config = _sweep_config(ctx, ctx["size"].replicas)
    return [*CLI, *_traced(
        ["simulate", "--scenario", config.scenario, "--policy", config.policy,
         "--useful-hours", f"{config.useful_hours:g}",
         "--replicas", str(config.replicas), "--workers", "2",
         "--seed", str(config.seed), "--cache-dir", "sweep-cache"], trace_dir)]


def _sim_check(work: Path, ctx: dict, rc: int, stdout: str) -> List[str]:
    rows = {}
    for path in (work / "sweep-cache").glob("*.jsonl"):
        for line in path.read_text(encoding="utf-8").splitlines():
            row = json.loads(line)
            rows[row["replica"]] = row["metrics"]
    wrong = [i for i, want in enumerate(ctx["oracle"]) if rows.get(i) != want]
    return [f"replicas {wrong} differ from the serial oracle"] if wrong else []


def _sim_walk(ctx: dict, rec: Recorder) -> dict:
    from repro.sim import run_sweep

    config = _sweep_config(ctx, ctx["size"].replicas)
    with rec.span("walk"):
        with rec.span("sim.warm"):
            config.build()
        with rec.span("sim.sweep"):
            parallel = run_sweep(config, workers=2)
    with rec.span("probe"):
        with rec.span("sim.serial"):
            serial = run_sweep(config, workers=1)
    return {
        "sim.replicas_per_s": config.replicas / rec.total("sim.serial"),
        "sim.fanout_speedup": rec.total("sim.serial") / rec.total("sim.sweep"),
        "problems": [] if parallel.aggregate == serial.aggregate
        else ["sweep aggregate differs between 1 and 2 workers"],
    }


WORKLOADS = {w.name: w for w in (
    Workload(
        "study-serial", setup=_d01, argv=_study_argv, walk=_study_walk,
    ),
    Workload(
        "verify-parallel", setup=_d01, argv=_verify_argv, walk=_verify_walk,
        expect_rc=(0, 1), cpus=2, check=_verify_check,
    ),
    Workload(
        "store-mixed", setup=_store_setup, argv=_store_argv, walk=_store_walk,
        op_outputs=("S", "W"), warmup_args=("--check",), parse=_store_parse,
    ),
    Workload(
        "replay-backtest", setup=_replay_setup, argv=_replay_argv, walk=_replay_walk,
    ),
    Workload(
        "sim-sweep", setup=_sim_setup, argv=_sim_argv, walk=_sim_walk,
        cpus=2, op_outputs=("sweep-cache",), check=_sim_check,
    ),
)}
