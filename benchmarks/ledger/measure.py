"""One benchmark run of one workload, as ``run.py`` executes it.

Untraced (``--trace 0``), a run reports the end-to-end metrics:

1. set-up :data:`SETUP_REPEATS` times, each into a fresh work directory;
   ``setup_s`` is the median;
2. one untimed warm-up operation, whose output digest every later
   operation must reproduce (and, at seed 7, the one in ``reference.json``);
3. operations back to back until ``--seconds`` have passed, at least
   :data:`MIN_OPS`.  ``wall_s`` is their median and ``peak_rss_mb`` the
   median of their peak RSS, from ``os.wait4`` on each operation (in
   ``launcher.py``): the largest single process of that operation's tree.

Other tenants of a shared host slow it by up to 2x, in phases of a few
seconds that differ from CPU to CPU, so every operation runs pinned to
``Workload.cpus`` CPUs while a :class:`Speedometer` times :func:`probe`, a
small fixed piece of work that shares no code with the program, on each of
them.  Every time reported (unit ``s``) is multiplied, and every rate
(``1/s``) divided, by :data:`REFERENCE_PROBE_S` over the mean probe taken
while it was measured: times are in seconds of a host on which the probe
takes 1 ms.  On a shared 2-CPU x86_64 VM whose raw ``study`` times spread
17%, the scaled ones spread 6%.

Traced (``--trace 1``), a run reports the per-layer metrics: one set-up,
the same warm-up and timed loop (its median is the baseline), one rerun of
the command with the program's own ``--trace``, three timed ``--help``
runs, and the in-process layer walk.  Shares (``*_pct``) are a span name's
self time over the baseline (set-up spans: over the set-up time); a layer
the workload does not reach reports 0.

The last line of stdout is the run's result as one JSON object.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import shutil
import statistics
import subprocess
import sys
import random
import signal
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from benchmarks.ledger.inputs import FULL, Size, log_volume
from benchmarks.ledger.spans import Recorder, self_time_by_name
from benchmarks.ledger.workloads import WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"

SETUP_REPEATS = 3
MIN_OPS = 3
#: An operation still running after this long is killed and counted failed.
OP_TIMEOUT_S = 60.0
STARTUP_PROBES = 3
REFERENCE_SEED = 7
#: Seconds :func:`probe` takes on the reference host; reported times are
#: scaled to that host.  (On a shared 2-CPU x86_64 VM it takes 0.7 ms at
#: best and about twice that when the neighbours are busy.)
REFERENCE_PROBE_S = 0.001
#: Seconds a sampler sleeps between probes: about 3% of its CPU.
SAMPLE_GAP_S = 0.03


def load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def probe() -> float:
    """Seconds to do a small fixed mix of interpreter and numpy work.

    Parsing-shaped string, dict and sort work plus a numpy sort, like the
    program's own mix, but none of the program's code: a change to the
    program cannot move it, only the host can.
    """
    import numpy as np

    started = time.perf_counter()
    rng = random.Random(0)
    lines = [
        f"2022-03-{rng.randrange(1, 29):02d}T{rng.randrange(24):02d}:00:00 "
        f"gpu{rng.randrange(512)} kernel: NVRM: Xid {rng.randrange(120)}"
        for _ in range(200)
    ]
    counts: Dict[str, int] = {}
    for line in lines:
        key = line.split()[1]
        counts[key] = counts.get(key, 0) + 1
    lines.sort()
    values = np.random.default_rng(0).random(2_000)
    np.sort(values)
    values.cumsum()
    return time.perf_counter() - started


def _sample(cpu: int, stop, send, parent: int) -> None:
    """Sampler process: probe on ``cpu`` until ``stop`` (or until the
    harness is gone); send the mean."""
    os.sched_setaffinity(0, {cpu})
    total, count = probe(), 1
    while not stop.wait(SAMPLE_GAP_S) and os.getppid() == parent:
        total += probe()
        count += 1
    send.send(total / count)


class Speedometer:
    """How fast the host runs, on given CPUs, while a block runs.

    One sampler process per CPU times :func:`probe` every
    :data:`SAMPLE_GAP_S` for as long as the block lasts.  A shared host's
    speed swings up to 2x within seconds and differs between its CPUs, so
    only a probe taken on the same CPU at the same time tracks what an
    operation met: on a shared 2-CPU VM, the log of a ``study`` operation's
    wall time correlated 0.95 with the concurrent probe on its CPU and 0.40
    with a 0.1-second probe run just before it.
    """

    def __init__(self, cpus: List[int]) -> None:
        self.cpus = cpus
        #: Mean probe seconds over the block, on all of ``cpus``.
        self.probe_s = float("nan")

    def __enter__(self) -> "Speedometer":
        context = multiprocessing.get_context("fork")
        self._stop = context.Event()
        self._samplers = []
        try:
            for cpu in self.cpus:
                receive, send = context.Pipe(duplex=False)
                process = context.Process(
                    target=_sample, args=(cpu, self._stop, send, os.getpid())
                )
                process.start()
                send.close()
                self._samplers.append((process, receive))
        except BaseException:
            self.__exit__()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        means = []
        for process, receive in self._samplers:
            try:
                means.append(receive.recv())
            except EOFError:  # the sampler died; the others still count
                pass
            receive.close()
            process.join()
        if means:
            self.probe_s = statistics.fmean(means)

    def scale(self, seconds: float) -> float:
        """``seconds`` measured in the block, in reference-host seconds."""
        return seconds * REFERENCE_PROBE_S / self.probe_s


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass
class Op:
    wall: float
    rss_mb: float
    rc: int
    #: ``wall`` in reference-host seconds.
    scaled: float = 0.0
    digest: str = ""
    queries: int = 0
    failed_queries: int = 0
    problems: List[str] = field(default_factory=list)


class Runner:
    """Runs a workload's command as a fresh process in its work directory."""

    def __init__(self, workload: Workload, work: Path, ctx: dict) -> None:
        self.workload = workload
        self.work = work
        self.ctx = ctx
        #: The CPUs every operation is pinned to, one per process it keeps busy.
        self.cpus = sorted(os.sched_getaffinity(0))[:workload.cpus]
        self.env = dict(
            os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)])
        )

    def spawn(self, args: List[str]) -> Tuple[Op, str, str]:
        """Run ``python args`` through ``launcher.py``: (op, stdout, stderr)."""
        out_path, err_path = self.work / "op.stdout", self.work / "op.stderr"
        result_path = self.work / "op.json"
        result_path.unlink(missing_ok=True)
        with open(out_path, "wb") as out, open(err_path, "wb") as err, \
                Speedometer(self.cpus) as meter:
            proc = subprocess.Popen(
                [sys.executable, "-S", str(HERE / "launcher.py"), str(result_path),
                 ",".join(map(str, self.cpus)), sys.executable, *args],
                cwd=self.work, env=self.env, stdout=out, stderr=err,
                start_new_session=True,
            )
            try:
                proc.wait(timeout=OP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                os.killpg(proc.pid, signal.SIGKILL)  # the launcher and the command
                proc.wait()
        if result_path.exists():
            result = json.loads(result_path.read_text(encoding="utf-8"))
            op = Op(result["wall"], result["rss_mb"], result["rc"])
        else:
            op = Op(OP_TIMEOUT_S, 0.0, -signal.SIGKILL)
        op.scaled = meter.scale(op.wall)
        return (
            op,
            out_path.read_text(encoding="utf-8", errors="replace"),
            err_path.read_text(encoding="utf-8", errors="replace"),
        )

    def op(self, *, warmup: bool = False, trace_dir: Optional[str] = None) -> Op:
        workload = self.workload
        for name in workload.op_outputs:
            shutil.rmtree(self.work / name, ignore_errors=True)
        args = workload.argv(self.ctx, trace_dir)
        if warmup:
            args += list(workload.warmup_args)
        op, stdout, stderr = self.spawn(args)
        if op.rc not in workload.expect_rc:
            op.problems.append(f"exit {op.rc}: {stderr.strip()[-400:]}")
            return op
        if workload.parse is None:
            op.digest = sha256(stdout)
        else:
            try:
                op.digest, op.queries, op.failed_queries = workload.parse(stdout)
            except (ValueError, KeyError, IndexError) as error:
                op.problems.append(f"unreadable output: {error!r}")
        if workload.check is not None:
            op.problems += workload.check(self.work, self.ctx, op.rc, stdout)
        if warmup:
            print(f"{workload.name}: output digest {op.digest}", file=sys.stderr)
        return op


def _setup(workload: Workload, work: Path, seed: int, size: Size,
           recorder: Recorder) -> Tuple[dict, float]:
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    started = time.perf_counter()
    with recorder.span("setup"):
        ctx = workload.setup(work, seed, size, recorder)
    return ctx, time.perf_counter() - started


def _timed_ops(runner: Runner, seconds: float) -> List[Op]:
    ops: List[Op] = []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(ops) < MIN_OPS:
        ops.append(runner.op())
    return ops


def _tally(ops: List[Op], digest: str) -> Tuple[int, int, List[str]]:
    """(attempted, failed, problems): an operation fails on a problem or on
    output that differs from the warm-up's; each raising query fails too."""
    attempted = failed = 0
    problems: List[str] = []
    for op in ops:
        attempted += 1 + op.queries
        failed += op.failed_queries
        if op.problems or op.digest != digest:
            failed += 1
            problems += op.problems or ["output differs from the warm-up's"]
    return attempted, failed, problems


def _reference_problems(name: str, seed: int, size: Size, digest: str) -> List[str]:
    if seed != REFERENCE_SEED or size != FULL:
        return []
    reference = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
    want = reference.get(name)
    if want is not None and want != digest:
        return [f"seed-{seed} output digest {digest[:12]} is not the "
                f"reference {want[:12]}"]
    return []


def _end_to_end(workload: Workload, work: Path, seed: int, seconds: float,
                size: Size) -> Tuple[Dict[str, float], int, int, List[str]]:
    setups = []
    for _ in range(SETUP_REPEATS):
        with Speedometer(sorted(os.sched_getaffinity(0))) as meter:
            ctx, elapsed = _setup(workload, work, seed, size, Recorder())
        setups.append(meter.scale(elapsed))
    runner = Runner(workload, work, ctx)
    warm = runner.op(warmup=True)
    ops = _timed_ops(runner, seconds)
    attempted, failed, problems = _tally(ops, warm.digest)
    problems = warm.problems + _reference_problems(
        workload.name, seed, size, warm.digest) + problems
    values = {
        "wall_s": statistics.median(op.scaled for op in ops),
        "peak_rss_mb": statistics.median(op.rss_mb for op in ops),
        "setup_s": statistics.median(setups),
    }
    return values, attempted, failed, problems


def _program_counts(trace_dir: Path, traced: Op) -> Dict[str, float]:
    """Counts from the spans and counters the program itself emitted."""
    from repro.obs.reader import read_trace_dir

    data = read_trace_dir(trace_dir)
    counters = data.counters()
    planned = counters.get("store.segments_planned", 0)
    pruned = counters.get("store.segments_pruned", 0)
    values = {
        # Every Stage-I pass ends in exactly one merge or concat span.
        "pipeline.extract_passes": sum(
            1 for s in data.spans if s["name"] in ("pipeline.merge", "pipeline.concat")
        ),
        "store.prune_ratio": pruned / planned if planned else 0.0,
    }
    if traced.queries:
        values["store.segments_scanned_per_query"] = (planned - pruned) / traced.queries
        values["store.rows_per_query"] = (
            counters.get("store.rows_matched", 0) / traced.queries
        )
    return values


def _per_layer(workload: Workload, work: Path, seed: int, seconds: float,
               size: Size) -> Tuple[Dict[str, float], int, int, List[str]]:
    recorder = Recorder()
    ctx, setup_s = _setup(workload, work, seed, size, recorder)
    runner = Runner(workload, work, ctx)
    warm = runner.op(warmup=True)
    ops = _timed_ops(runner, seconds)
    traced = runner.op(trace_dir="trace")
    attempted, failed, problems = _tally(ops + [traced], warm.digest)
    problems = warm.problems + _reference_problems(
        workload.name, seed, size, warm.digest) + problems
    baseline = statistics.median(op.scaled for op in ops)

    values: Dict[str, float] = _program_counts(work / "trace", traced)
    values["obs.overhead_pct"] = 100.0 * (traced.scaled / baseline - 1.0)
    values["cli.startup_s"] = statistics.median(
        runner.spawn(["-m", "repro.cli", "--help"])[0].scaled
        for _ in range(STARTUP_PROBES)
    )
    if (work / "D01").is_dir():
        values["syslog.log_mb"], values["syslog.log_lines"] = log_volume(work / "D01")

    for name in workload.op_outputs:
        shutil.rmtree(work / name, ignore_errors=True)
    cwd = os.getcwd()
    os.chdir(work)
    try:
        with Speedometer(sorted(os.sched_getaffinity(0))) as meter:
            counts = workload.walk(ctx, recorder)
    finally:
        os.chdir(cwd)
    problems += counts.pop("problems", [])
    if "stdout" in counts and sha256(counts.pop("stdout")) != warm.digest:
        problems.append("the in-process walk's output differs from the command's")
    values.update(counts)
    # The walk's spans and rates, in reference-host seconds.
    speed = meter.scale(1.0)
    for spec in load_benchmark()["per_layer"]:
        if spec["unit"] == "1/s" and spec["name"] in values:
            values[spec["name"]] /= speed

    spans = recorder.spans
    for name, seconds_in in self_time_by_name(spans, root="setup").items():
        values[f"{name}_pct"] = 100.0 * seconds_in / setup_s
    walk = self_time_by_name(spans, root="walk")
    for name, seconds_in in {**self_time_by_name(spans, root="probe"), **walk}.items():
        values[f"{name}_pct"] = 100.0 * seconds_in * speed / baseline
    values["unattributed_s"] = baseline - speed * sum(walk.values())
    recorder.write_jsonl(OUT / f"{workload.name}.spans.jsonl")
    return values, attempted, failed, problems


def measure(name: str, seed: int, seconds: float, trace: bool,
            size: Size = FULL) -> dict:
    """One run; returns the result object ``run.py`` prints."""
    benchmark = load_benchmark()
    workload = WORKLOADS[name]
    work = OUT / "work" / f"{name}-{seed}-{os.getpid()}"
    try:
        collect = _per_layer if trace else _end_to_end
        values, attempted, failed, problems = collect(
            workload, work, seed, seconds, size
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)
    metrics = {
        spec["name"]: {"value": float(values.get(spec["name"], 0.0)), "unit": spec["unit"]}
        for spec in benchmark["per_layer" if trace else "end_to_end"]
    }
    for problem in problems:
        print(f"{name}: {problem}", file=sys.stderr)
    return {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
