"""Job-impact analysis (paper Section 5, Tables 2-3, Figures 9a-9b).

Joins the Slurm accounting database against coalesced GPU errors:

* **encounters** — a job encounters an XID if an error of that code occurs
  on one of its allocated GPUs during its runtime;
* **GPU-failed classification** — a job is *GPU-failed* if it did not
  complete and a GPU error occurred on its allocation within the 20-second
  window before its end time; every code in that window is considered
  responsible (paper Section 5.3);
* **Table 2** — per-XID job-failure probability;
* **Table 3** — job-size buckets with elapsed statistics and ML/non-ML
  GPU-hours (ML-ness inferred from the submission name, as in the paper);
* **Figures 9a/9b** — elapsed-time histograms of completed vs GPU-failed
  jobs, and error-encounter counts vs duration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Set, Tuple

import numpy as np

from repro.core.coalesce import CoalescedError
from repro.faults.xid import is_studied
from repro.slurm.accounting import SlurmDatabase
from repro.slurm.job import GpuKey
from repro.slurm.workload import SIZE_BUCKETS, classify_ml

#: The paper's attribution window: an error within this many seconds before
#: a job's failure is considered responsible.
ATTRIBUTION_WINDOW = 20.0


@dataclass(frozen=True)
class Table2Row:
    xid: int
    gpu_failed_jobs: int
    jobs_encountering: int

    @property
    def failure_probability(self) -> float:
        if self.jobs_encountering == 0:
            return float("nan")
        return self.gpu_failed_jobs / self.jobs_encountering


@dataclass(frozen=True)
class Table3Row:
    label: str
    count: int
    share: float
    mean_minutes: float
    p50_minutes: float
    p99_minutes: float
    ml_gpu_hours: float
    non_ml_gpu_hours: float


@dataclass(frozen=True)
class ElapsedHistogram:
    """Figure 9a: completed vs GPU-failed job counts per elapsed-time bin."""

    edges_minutes: Tuple[float, ...]
    completed: Tuple[int, ...]
    gpu_failed: Tuple[int, ...]


class JobImpactAnalyzer:
    """Correlate GPU errors with user jobs.

    The (job, GPU) join runs once, at construction: for each GPU with
    studied errors, ``searchsorted`` finds the errors in all its jobs'
    runtimes ``[start, end]`` and attribution windows
    ``[end - ATTRIBUTION_WINDOW, end]`` at once (both ends inclusive; a
    window may reach back before its job's start).  Every table and
    figure reads that one result.
    """

    def __init__(self, database: SlurmDatabase, errors: Sequence[CoalescedError]) -> None:
        self.database = database
        jobs = database.jobs
        per_gpu: Dict[GpuKey, List[Tuple[float, int]]] = {}
        for error in errors:
            if is_studied(error.xid):
                per_gpu.setdefault(error.gpu_key, []).append((error.time, error.xid))
        # (job, GPU) pairs on GPUs with errors, numbered in job order and,
        # within a job, in allocation order.
        pair_job: List[int] = []
        pairs_on: Dict[GpuKey, List[int]] = {gpu: [] for gpu in per_gpu}
        for index, job in enumerate(jobs):
            for gpu in job.gpus:
                pairs = pairs_on.get(gpu)
                if pairs is not None:
                    pairs.append(len(pair_job))
                    pair_job.append(index)
        starts = np.array([j.start_time for j in jobs], dtype=float)
        ends = np.array([j.end_time for j in jobs], dtype=float)
        self._elapsed = np.array([j.elapsed_minutes for j in jobs], dtype=float)
        self._succeeded = np.array([j.succeeded for j in jobs], dtype=bool)

        owner = np.array(pair_job, dtype=np.int64)
        lo = np.zeros(owner.size, dtype=np.int64)
        hi = np.zeros(owner.size, dtype=np.int64)
        window_lo = np.zeros(owner.size, dtype=np.int64)
        xid_parts: List[np.ndarray] = []
        offset = 0
        for gpu, pairs in pairs_on.items():
            if not pairs:
                continue
            events = sorted(per_gpu[gpu])
            times = np.array([t for t, _ in events])
            xid_parts.append(np.array([x for _, x in events], dtype=np.int64))
            at = np.array(pairs, dtype=np.int64)
            job_index = owner[at]
            lo[at] = offset + np.searchsorted(times, starts[job_index], side="left")
            hi[at] = offset + np.searchsorted(times, ends[job_index], side="right")
            window_lo[at] = offset + np.searchsorted(
                times, ends[job_index] - ATTRIBUTION_WINDOW, side="left"
            )
            offset += len(events)
        xids = np.concatenate(xid_parts) if xid_parts else np.zeros(0, dtype=np.int64)

        runtime = np.maximum(hi - lo, 0)
        self._n_errors = np.bincount(owner, weights=runtime, minlength=len(jobs))
        #: Per job with runtime errors: their XIDs, allocation order then time.
        self._seen: Dict[int, List[int]] = {}
        for p in np.flatnonzero(runtime).tolist():
            self._seen.setdefault(pair_job[p], []).extend(xids[lo[p]:hi[p]].tolist())
        blamed: Dict[int, List[int]] = {}
        in_window = (hi > window_lo) & ~self._succeeded[owner]
        for p in np.flatnonzero(in_window).tolist():
            blamed.setdefault(pair_job[p], []).extend(xids[window_lo[p]:hi[p]].tolist())
        #: Per GPU-failed job, in job order: its responsible XIDs, sorted.
        self._responsible = {i: tuple(sorted(set(x))) for i, x in blamed.items()}
        self._failed = np.zeros(len(jobs), dtype=bool)
        self._failed[owner[in_window]] = True

    # ------------------------------------------------------------------
    # Classification and Table 2
    # ------------------------------------------------------------------

    def classify_jobs(self) -> Dict[int, Tuple[bool, Tuple[int, ...]]]:
        """Per job: (is GPU-failed, responsible XIDs).

        A job is GPU-failed when it did not succeed and at least one studied
        error hit its allocation within the attribution window before its
        end; the responsible set is every code in that window.
        """
        return {
            job.job_id: (index in self._responsible, self._responsible.get(index, ()))
            for index, job in enumerate(self.database.jobs)
        }

    def table2(self) -> List[Table2Row]:
        jobs = self.database.jobs
        encountering: Dict[int, Set[int]] = {}
        failed: Dict[int, Set[int]] = {}
        for index in sorted(self._seen.keys() | self._responsible.keys()):
            job_id = jobs[index].job_id
            for xid in set(self._seen.get(index, ())):
                encountering.setdefault(xid, set()).add(job_id)
            for xid in self._responsible.get(index, ()):
                failed.setdefault(xid, set()).add(job_id)
                # A job can fail on an error arriving in the window before
                # its start, which the runtime join above misses; make sure
                # the denominator includes every failing job.
                encountering.setdefault(xid, set()).add(job_id)
        rows = [
            Table2Row(
                xid=xid,
                gpu_failed_jobs=len(failed.get(xid, set())),
                jobs_encountering=len(job_ids),
            )
            for xid, job_ids in encountering.items()
        ]
        rows.sort(key=lambda r: r.gpu_failed_jobs, reverse=True)
        return rows

    def total_gpu_failed(self) -> int:
        return len(self._responsible)

    # ------------------------------------------------------------------
    # Table 3
    # ------------------------------------------------------------------

    def table3(self) -> List[Table3Row]:
        jobs = self.database.jobs
        total = len(jobs) or 1
        is_ml = [classify_ml(j.name) for j in jobs]
        n_gpus = np.array([j.n_gpus for j in jobs], dtype=np.int64)
        rows: List[Table3Row] = []
        for bucket in SIZE_BUCKETS:
            members = np.flatnonzero(
                (n_gpus >= bucket.min_gpus) & (n_gpus <= bucket.max_gpus)
            )
            if not members.size:
                rows.append(Table3Row(bucket.label, 0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0))
                continue
            elapsed = self._elapsed[members]
            in_bucket = members.tolist()
            ml_hours = sum(jobs[i].gpu_hours for i in in_bucket if is_ml[i])
            non_ml_hours = sum(jobs[i].gpu_hours for i in in_bucket if not is_ml[i])
            rows.append(
                Table3Row(
                    label=bucket.label,
                    count=int(members.size),
                    share=int(members.size) / total,
                    mean_minutes=float(elapsed.mean()),
                    p50_minutes=float(np.percentile(elapsed, 50)),
                    p99_minutes=float(np.percentile(elapsed, 99)),
                    ml_gpu_hours=ml_hours,
                    non_ml_gpu_hours=non_ml_hours,
                )
            )
        return rows

    def success_rate(self) -> float:
        return self.database.success_rate()

    # ------------------------------------------------------------------
    # Figures 9a / 9b
    # ------------------------------------------------------------------

    def elapsed_histogram(
        self, edges_minutes: Sequence[float] = (0, 10, 60, 240, 1000, 2000, 4000, 8000)
    ) -> ElapsedHistogram:
        edges = np.asarray(edges_minutes, dtype=float)
        completed, _ = np.histogram(self._elapsed[self._succeeded], bins=edges)
        failed, _ = np.histogram(self._elapsed[self._failed], bins=edges)
        return ElapsedHistogram(
            edges_minutes=tuple(edges),
            completed=tuple(int(c) for c in completed),
            gpu_failed=tuple(int(c) for c in failed),
        )

    def lost_node_hours(self) -> float:
        """Node-hours of work wasted in GPU-failed jobs (paper: ~7,500)."""
        jobs = self.database.jobs
        return sum(jobs[i].node_hours for i in self._responsible)

    def errors_vs_duration(
        self, edges_minutes: Sequence[float] = (0, 60, 500, 1000, 2000, 4000, 90000)
    ) -> Dict[str, List[Tuple[float, float]]]:
        """Figure 9b: mean errors encountered per duration bin, for
        completed and GPU-failed jobs (non-GPU failures are out of scope)."""
        edges = list(edges_minutes)
        n_bins = len(edges) - 1
        bins = np.searchsorted(np.asarray(edges, dtype=float), self._elapsed, side="right") - 1
        in_range = (bins >= 0) & (bins < n_bins)
        out: Dict[str, List[Tuple[float, float]]] = {}
        for key, members in (("completed", self._succeeded), ("gpu_failed", self._failed)):
            chosen = members & in_range
            counts = np.bincount(bins[chosen], minlength=n_bins)
            sums = np.bincount(bins[chosen], weights=self._n_errors[chosen], minlength=n_bins)
            out[key] = [
                (
                    (edges[b] + edges[b + 1]) / 2.0,
                    float(sums[b]) / int(counts[b]) if counts[b] else 0.0,
                )
                for b in range(n_bins)
            ]
        return out
