"""The fan-out primitive: order, errors, the serial path, dead workers."""

from __future__ import annotations

import multiprocessing
import os
import signal
import subprocess
import sys
import time
from functools import partial
from pathlib import Path

import pytest

import repro
from repro.pipeline import Source
from repro.util.fanout import FanoutError, ordered_map

#: Seconds any one fan-out may take before its test fails instead of hanging.
DEADLINE = 60


@pytest.fixture
def deadline():
    """Raise in the test, rather than hang the suite, past ``DEADLINE``."""
    if not hasattr(signal, "SIGALRM"):
        yield
        return

    def expire(signum, frame):
        raise TimeoutError(f"fan-out still running after {DEADLINE} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(DEADLINE)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _uneven(offset: int, item: int):
    time.sleep((item * 7 % 11) / 2000)  # 0-5 ms: workers finish out of order
    return offset + item


def _fail_on_13(item: int) -> int:
    if item == 13:
        raise ValueError(f"bad item {item}")
    return item


def _pid(item: int) -> int:
    return os.getpid()


class TestOrderedMap:
    def test_results_in_item_order_with_more_workers_than_cpus(self, deadline):
        items = list(range(200))
        results = ordered_map(
            partial(_uneven, 1000), items, workers=8, label="test"
        )
        assert results == [1000 + item for item in items]

    def test_fn_exception_reaches_the_caller_unchanged(self, deadline):
        with pytest.raises(ValueError, match="^bad item 13$"):
            ordered_map(_fail_on_13, range(20), workers=2, label="test")

    @pytest.mark.parametrize("workers,items", [(1, [1, 2, 3]), (8, [1])])
    def test_one_worker_or_item_runs_in_the_calling_process(
        self, monkeypatch, workers, items
    ):
        import concurrent.futures

        def no_pool(*args, **kwargs):
            raise AssertionError("a pool started")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        pids = ordered_map(_pid, items, workers=workers, label="test")
        assert pids == [os.getpid()] * len(items)


# -- dead workers ------------------------------------------------------------
#
# Each case runs one fan-out call site in a child interpreter whose pool
# worker SIGKILLs itself, so a call site that hangs fails its test after
# DEADLINE seconds instead of hanging the suite.

_caller_pid = None


def _die_in_worker(*args, **kwargs):
    """Stand-in for a worker's real work: the worker kills itself."""
    if os.getpid() != _caller_pid:
        os.kill(os.getpid(), signal.SIGKILL)
    raise AssertionError("ran in the calling process, not in a pool worker")


class _DyingShard:
    def batch(self):
        return _die_in_worker()


class _DyingSource(Source):
    def shards(self):
        return [_DyingShard(), _DyingShard()]


def _dead_worker_case(case: str) -> None:
    """Run ``case`` with a dying worker; print what it raised or returned."""
    global _caller_pid
    _caller_pid = os.getpid()
    import repro.experiments
    import repro.sim.sweep as sweep
    from repro.cli import main
    from repro.pipeline import extract_records
    from repro.session import RunConfig, Session

    # Patched before any pool forks, so every worker inherits the patch.
    sweep.simulate_training_run = _die_in_worker
    repro.experiments.run_experiment = _die_in_worker
    if case == "verify":
        code = main(["verify", "--scale", "0.004", "--seed", "3", "--jobs", "2"])
        print(f"exit {code}")
        return
    calls = {
        "extract": lambda: extract_records(_DyingSource(), workers=2),
        "sweep": lambda: sweep.run_sweep(sweep.SweepConfig(replicas=2), workers=2),
        "jobs": lambda: Session(RunConfig(scale=0.004, seed=3, jobs=2)).run_many(
            ["table1", "fig5"]
        ),
    }
    try:
        calls[case]()
    except Exception as error:  # report whatever escaped, for the test
        print(type(error).__name__)
    else:
        print("no error")


def run_dead_worker_case(case: str):
    """``(stdout, stderr)`` of :func:`_dead_worker_case` in a child."""
    root = Path(__file__).resolve().parents[2]
    src = Path(repro.__file__).resolve().parents[1]
    path = [str(src), str(root), os.environ.get("PYTHONPATH", "")]
    child = subprocess.Popen(
        [sys.executable, "-c",
         f"from tests.util.test_fanout import _dead_worker_case; "
         f"_dead_worker_case({case!r})"],
        cwd=root,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(path)},
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,  # its pool workers share its process group
    )
    try:
        return child.communicate(timeout=DEADLINE)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        pytest.fail(f"{case}: hung on a dead worker for {DEADLINE} s")


@pytest.mark.skipif(
    multiprocessing.get_all_start_methods()[0] != "fork",
    reason="the dying stand-in reaches only forked workers",
)
class TestDeadWorker:
    @pytest.mark.parametrize("case", ["extract", "sweep", "jobs"])
    def test_call_site_raises_fanout_error(self, case):
        stdout, stderr = run_dead_worker_case(case)
        assert stdout.splitlines()[-1:] == [FanoutError.__name__], stderr

    def test_verify_exits_2_with_one_error_line(self):
        stdout, stderr = run_dead_worker_case("verify")
        lines = stdout.splitlines()
        assert lines[-1:] == ["exit 2"], stderr
        assert len(lines) == 2 and lines[0].startswith("error: "), lines
        assert "Traceback" not in stderr
