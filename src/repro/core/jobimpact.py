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

from repro import obs
from repro.core.coalesce import CoalescedError
from repro.faults.xid import is_studied
from repro.slurm.accounting import SlurmDatabase
from repro.slurm.job import JobTable
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

    The (job, GPU) join runs once, at construction, over the job table's
    allocation column: for each GPU with studied errors, ``searchsorted``
    finds the errors in all its jobs' runtimes ``[start, end]`` and
    attribution windows ``[end - ATTRIBUTION_WINDOW, end]`` at once (both
    ends inclusive; a window may reach back before its job's start).
    Every table and figure reads that one result.  Float sums add the
    same values in the same order as a per-job loop, with Python's ``sum``.
    """

    def __init__(self, database: SlurmDatabase, errors: Sequence[CoalescedError]) -> None:
        self.database = database
        jobs = database.jobs
        with obs.span("jobimpact.join") as span:
            self._join(jobs, errors)
            span.add("jobimpact.pairs", self._n_pairs)
            span.add("jobimpact.gpu_failed", len(self._responsible))

    def _join(self, jobs: JobTable, errors: Sequence[CoalescedError]) -> None:
        code_of = {gpu: code for code, gpu in enumerate(jobs.gpu_dict)}
        per_gpu: Dict[int, List[Tuple[float, int]]] = {}
        for error in errors:
            code = code_of.get(error.gpu_key)
            if code is not None and is_studied(error.xid):
                per_gpu.setdefault(code, []).append((error.time, error.xid))
        has_errors = np.zeros(len(jobs.gpu_dict), dtype=bool)
        has_errors[list(per_gpu)] = True
        # (job, GPU) pairs on GPUs with errors, numbered in job order and,
        # within a job, in allocation order.
        on = np.flatnonzero(has_errors[jobs.gpu])
        owner = jobs.alloc_job[on]
        pair_gpu = jobs.gpu[on]
        self._n_pairs = len(on)
        starts, ends = jobs.start, jobs.end
        self._elapsed = jobs.elapsed / 60.0
        self._succeeded = jobs.succeeded

        lo = np.zeros(owner.size, dtype=np.int64)
        hi = np.zeros(owner.size, dtype=np.int64)
        window_lo = np.zeros(owner.size, dtype=np.int64)
        xid_parts: List[np.ndarray] = []
        offset = 0
        by_gpu = np.argsort(pair_gpu, kind="stable")
        bounds = np.searchsorted(pair_gpu[by_gpu], sorted(per_gpu)).tolist() + [owner.size]
        for i, code in enumerate(sorted(per_gpu)):
            at = by_gpu[bounds[i]:bounds[i + 1]]
            if not at.size:
                continue
            events = sorted(per_gpu[code])
            times = np.array([t for t, _ in events])
            xid_parts.append(np.array([x for _, x in events], dtype=np.int64))
            job_index = owner[at]
            lo[at] = offset + np.searchsorted(times, starts[job_index], side="left")
            hi[at] = offset + np.searchsorted(times, ends[job_index], side="right")
            window_lo[at] = offset + np.searchsorted(
                times, ends[job_index] - ATTRIBUTION_WINDOW, side="left"
            )
            offset += len(events)
        self._xids = np.concatenate(xid_parts) if xid_parts else np.zeros(0, dtype=np.int64)

        runtime = np.maximum(hi - lo, 0)
        self._n_errors = np.bincount(owner, weights=runtime, minlength=len(jobs))
        #: Per pair with runtime errors: its job and error range.
        hit = np.flatnonzero(runtime)
        self._hits = (owner[hit], lo[hit], hi[hit])
        blamed: Dict[int, Set[int]] = {}
        in_window = (hi > window_lo) & ~self._succeeded[owner]
        for p in np.flatnonzero(in_window).tolist():
            blamed.setdefault(int(owner[p]), set()).update(
                self._xids[window_lo[p]:hi[p]].tolist()
            )
        #: Per GPU-failed job, in job order: its responsible XIDs, sorted.
        self._responsible = {i: tuple(sorted(x)) for i, x in blamed.items()}
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
            job_id: (index in self._responsible, self._responsible.get(index, ()))
            for index, job_id in enumerate(self.database.jobs.job_id.tolist())
        }

    def _seen(self, index: int) -> List[int]:
        """The studied XIDs job ``index`` met while running: allocation
        order, then time order on each GPU."""
        jobs_hit, lo, hi = self._hits
        seen: List[int] = []
        for p in np.flatnonzero(jobs_hit == index).tolist():
            seen.extend(self._xids[lo[p]:hi[p]].tolist())
        return seen

    def table2(self) -> List[Table2Row]:
        # (job, XID) encounters: runtime errors, plus the codes blamed for a
        # failure, since a job can fail on an error arriving in the window
        # before its start, which the runtime join misses.
        jobs_hit, lo, hi = self._hits
        counts = hi - lo
        runtime_job = np.repeat(jobs_hit, counts)
        runtime_xid = self._xids[
            np.repeat(lo - np.cumsum(counts) + counts, counts) + np.arange(counts.sum())
        ]
        failed = [(i, x) for i, codes in self._responsible.items() for x in codes]
        failed_job = np.array([i for i, _ in failed], dtype=np.int64)
        failed_xid = np.array([x for _, x in failed], dtype=np.int64)
        # Distinct (XID, job) pairs, sorted by XID and then job.
        n_jobs = len(self.database.jobs)
        pair_xid, pair_job = np.divmod(np.unique(np.concatenate([
            runtime_xid * n_jobs + runtime_job, failed_xid * n_jobs + failed_job,
        ])), max(n_jobs, 1))
        xids, first, n_encountering = np.unique(
            pair_xid, return_index=True, return_counts=True
        )
        n_failed = dict(zip(*(a.tolist() for a in np.unique(failed_xid, return_counts=True))))
        # Rows in the order a walk over the jobs first meets each code: per
        # job, its runtime codes in set order, then its responsible codes.
        first_job = pair_job[first]
        rank: Dict[int, Tuple[int, int]] = {}
        for index in sorted(set(first_job.tolist())):
            walk = list(set(self._seen(index))) + list(self._responsible.get(index, ()))
            for position, xid in enumerate(walk):
                rank.setdefault(xid, (index, position))
        rows = [
            Table2Row(
                xid=xid,
                gpu_failed_jobs=n_failed.get(xid, 0),
                jobs_encountering=count,
            )
            for xid, count in sorted(
                zip(xids.tolist(), n_encountering.tolist()), key=lambda row: rank[row[0]]
            )
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
        is_ml = np.array([classify_ml(name) for name in jobs.name_dict], dtype=bool)[jobs.name]
        gpu_hours = jobs.elapsed / 3600.0 * jobs.n_gpus
        n_gpus = jobs.n_gpus
        rows: List[Table3Row] = []
        for bucket in SIZE_BUCKETS:
            members = np.flatnonzero(
                (n_gpus >= bucket.min_gpus) & (n_gpus <= bucket.max_gpus)
            )
            if not members.size:
                rows.append(Table3Row(bucket.label, 0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0))
                continue
            elapsed = self._elapsed[members]
            ml = is_ml[members]
            rows.append(
                Table3Row(
                    label=bucket.label,
                    count=int(members.size),
                    share=int(members.size) / total,
                    mean_minutes=float(elapsed.mean()),
                    p50_minutes=float(np.percentile(elapsed, 50)),
                    p99_minutes=float(np.percentile(elapsed, 99)),
                    ml_gpu_hours=sum(gpu_hours[members[ml]].tolist()),
                    non_ml_gpu_hours=sum(gpu_hours[members[~ml]].tolist()),
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
        failed = self.database.jobs.take(np.array(list(self._responsible), dtype=np.int64))
        return sum((failed.elapsed / 3600.0 * failed.n_nodes).tolist())

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
