"""The hard gate: tracing never changes a single output byte.

Runs the real ``study`` CLI over an on-disk dataset with ``--trace`` on
and off, serial and fanned out (``--workers`` x ``--jobs``), and
compares stdout and every written artifact byte for byte.  Also pins
the two manifest surfaces: the ``--output-dir`` manifest never carries
a ``trace`` block, the trace-directory manifests always do.
"""

from __future__ import annotations

import io
import json
from contextlib import redirect_stdout

import pytest

from repro import obs
from repro.cli import main
from repro.obs import read_trace_dir, summarize

from .conftest import SCALE, SEED

#: Span names a traced parallel study must cover end to end.
EXPECTED_SPANS = {
    "cli.study",
    "session.dispatch",
    "session.experiment",
    "pipeline.extract",
    "pipeline.extract.shard",
    "pipeline.coalesce",
}


def run_study(dataset, out_dir, *, workers, jobs, trace_dir=None):
    argv = ["study", "--dataset", str(dataset),
            "--scale", SCALE, "--seed", SEED,
            "--workers", str(workers), "--jobs", str(jobs),
            "--output-dir", str(out_dir)]
    if trace_dir is not None:
        argv += ["--trace", str(trace_dir)]
    stdout = io.StringIO()
    with redirect_stdout(stdout):
        assert main(argv) == 0
    return stdout.getvalue()


def dir_bytes(directory):
    """Relative path -> content for every file under ``directory``."""
    return {
        str(path.relative_to(directory)): path.read_bytes()
        for path in sorted(directory.rglob("*"))
        if path.is_file()
    }


@pytest.fixture(scope="module")
def runs(obs_dataset, tmp_path_factory):
    """One study run per (workers, jobs, traced) config we compare."""
    base = tmp_path_factory.mktemp("obs-identity")
    results = {}
    for workers, jobs, traced in [
        (1, 1, False), (1, 1, True),
        (4, 1, True),
        (1, 4, True),
        (4, 4, False), (4, 4, True),
    ]:
        key = (workers, jobs, traced)
        out = base / f"out-w{workers}-j{jobs}-{'t' if traced else 'p'}"
        trace = base / f"trace-w{workers}-j{jobs}" if traced else None
        stdout = run_study(obs_dataset, out,
                           workers=workers, jobs=jobs, trace_dir=trace)
        results[key] = {"stdout": stdout, "out": out, "trace": trace}
    return results


class TestByteIdentity:
    @pytest.mark.parametrize("workers,jobs", [(1, 1), (4, 4)])
    def test_outputs_identical_with_trace_on_vs_off(self, runs, workers, jobs):
        plain = runs[(workers, jobs, False)]
        traced = runs[(workers, jobs, True)]
        assert traced["stdout"] == plain["stdout"]
        assert dir_bytes(traced["out"]) == dir_bytes(plain["out"])

    def test_reports_identical_across_workers_and_jobs(self, runs):
        """The printed report is the same for every fan-out shape."""
        reports = {key: run["stdout"] for key, run in runs.items()}
        assert len(set(reports.values())) == 1, sorted(reports)

    def test_output_dir_manifests_never_carry_a_trace_block(self, runs):
        out = runs[(4, 4, True)]["out"]
        manifests = list(out.rglob("manifest.json"))
        assert manifests
        for path in manifests:
            assert "trace" not in json.loads(path.read_text(encoding="utf-8"))


class TestTraceContents:
    @pytest.mark.parametrize("workers,jobs", [(1, 1), (4, 1), (1, 4), (4, 4)])
    def test_every_record_validates(self, runs, workers, jobs):
        data = read_trace_dir(runs[(workers, jobs, True)]["trace"])
        assert data.problems == []
        assert data.spans

    def test_parallel_trace_covers_the_pipeline_end_to_end(self, runs):
        data = read_trace_dir(runs[(4, 4, True)]["trace"])
        names = {s["name"] for s in data.spans}
        assert EXPECTED_SPANS <= names, EXPECTED_SPANS - names
        # One logical trace across main + extract + job workers.
        assert len(data.trace_ids) == 1
        assert len(data.metas) >= 3

    def test_worker_spans_stitch_under_the_dispatch_span(self, runs):
        data = read_trace_dir(runs[(4, 4, True)]["trace"])
        by_id = {s["id"]: s for s in data.spans}

        def ancestors(span):
            while span.get("parent") in by_id:
                span = by_id[span["parent"]]
                yield span["name"]

        experiments = [s for s in data.spans
                       if s["name"] == "session.experiment"]
        assert experiments
        for span in experiments:
            assert "session.dispatch" in set(ancestors(span))

    def test_summary_counts_the_dataset_records(self, runs):
        data = read_trace_dir(runs[(1, 1, True)]["trace"])
        summary = summarize(data)
        assert summary["counters"]["pipeline.records"] > 0
        assert summary["counters"]["pipeline.errors"] > 0
        assert summary["problems"] == 0

    @pytest.mark.parametrize("workers,jobs", [(1, 1), (4, 4)])
    def test_trace_dir_manifests_carry_the_trace_block(
        self, runs, workers, jobs
    ):
        trace_dir = runs[(workers, jobs, True)]["trace"]
        manifests = sorted((trace_dir / "manifests").glob("*.manifest.json"))
        assert manifests, "no stamped manifests in the trace directory"
        trace_ids = read_trace_dir(trace_dir).trace_ids
        for path in manifests:
            manifest = json.loads(path.read_text(encoding="utf-8"))
            block = manifest["trace"]
            assert block["trace_id"] in trace_ids
            assert block["spans"], path.name
            assert "session.experiment" in block["spans"]


class TestJobSpans:
    def test_study_traces_one_slurm_load_and_one_job_join(self, runs, obs_dataset):
        """The job side's two spans, each once, with counts taken from
        the rows and the errors the study itself holds."""
        from repro.faults.xid import is_studied
        from repro.session import RunConfig, Session

        data = read_trace_dir(runs[(1, 1, True)]["trace"])
        by_id = {s["id"]: s for s in data.spans}

        def ancestors(span):
            while span.get("parent") in by_id:
                span = by_id[span["parent"]]
                yield span["name"]

        (load,) = [s for s in data.spans if s["name"] == "slurm.load"]
        (join,) = [s for s in data.spans if s["name"] == "jobimpact.join"]
        assert "session.study.build" in set(ancestors(load))
        assert "session.experiment" in set(ancestors(join))

        study = Session(RunConfig(dataset=obs_dataset, scale=float(SCALE),
                                  seed=int(SEED))).study
        jobs = list(study.slurm_db.jobs)
        error_gpus = {e.gpu_key for e in study.errors if is_studied(e.xid)}
        pairs = sum(gpu in error_gpus for job in jobs for gpu in job.gpus)
        assert pairs > 0
        assert load["counters"] == {"slurm.jobs": len(jobs)}
        assert join["counters"] == {
            "jobimpact.pairs": pairs,
            "jobimpact.gpu_failed": study.job_impact().total_gpu_failed(),
        }


#: The substrate's program spans: one per synthesis phase.
SYNTHESIS_SPANS = (
    "datasets.workload",
    "datasets.preview",
    "datasets.schedule",
    "datasets.inject",
    "datasets.couple",
)


class TestSubstrateSpans:
    def test_in_memory_study_traces_each_synthesis_phase_once(self, tmp_path):
        trace_dir = tmp_path / "trace"
        argv = ["study", "--scale", "0.02", "--seed", "7",
                "--output-dir", str(tmp_path / "out"), "--trace", str(trace_dir)]
        with redirect_stdout(io.StringIO()):
            assert main(argv) == 0
        data = read_trace_dir(trace_dir)
        assert data.problems == []
        by_id = {s["id"]: s for s in data.spans}

        def ancestors(span):
            while span.get("parent") in by_id:
                span = by_id[span["parent"]]
                yield span["name"]

        for name in SYNTHESIS_SPANS:
            (span,) = [s for s in data.spans if s["name"] == name]
            assert "session.study.build" in set(ancestors(span)), name
        # Building the study, rendering included, opens each span once:
        # none per event, per line or per formatting block.
        built = [s["name"] for s in data.spans
                 if "session.study.build" in set(ancestors(s))]
        assert len(built) == len(set(built)), sorted(built)

    def test_write_logs_opens_one_span(self, dataset, tmp_path):
        obs.activate(tmp_path / "trace")
        try:
            dataset.write_logs(tmp_path / "logs")
        finally:
            obs.deactivate()
        spans = read_trace_dir(tmp_path / "trace").spans
        assert [s["name"] for s in spans] == ["datasets.write_logs"]
