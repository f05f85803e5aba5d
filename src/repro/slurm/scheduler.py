"""GPU scheduling: place the submission stream onto the cluster.

A deliberately simple earliest-available scheduler: each partition (a40 /
a100 / h100) is a pool of GPUs with release times; a job takes the earliest
``k`` GPUs, waiting if the pool is busy.  Draining is modelled through
*blackout intervals*: a GPU inside a blackout accepts no new placements but
jobs already running on it continue — exactly Slurm's drain semantics, which
the paper's recovery narrative (Figure 1) relies on.

The resulting :class:`Schedule` exposes an :class:`OccupancyIndex` used both
by the fault injector (busy/idle placement bias) and by the failure coupler
(which job was on a GPU when an error hit).
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.inventory import ClusterInventory
from repro.cluster.node import NodeKind
from repro.slurm.job import NO_XID, GpuKey, JobSpec, JobTable, JobTableBuilder

Interval = Tuple[float, float]

#: Partition name -> node kinds backing it.
PARTITIONS: Dict[str, Tuple[NodeKind, ...]] = {
    "a40": (NodeKind.A40_X4,),
    "a100": (NodeKind.A100_X4, NodeKind.A100_X8),
    "h100": (NodeKind.GH200_X4,),
}


class OccupancyIndex:
    """Per-GPU interval index over a schedule (busy lookup + sampling)."""

    def __init__(self, jobs: JobTable, window_seconds: float) -> None:
        self.window_seconds = window_seconds
        # One interval per (job, GPU), grouped by GPU and sorted within it
        # by (start, end, job ID).
        rows, gpu = jobs.alloc_job, jobs.gpu
        order = np.lexsort((jobs.job_id[rows], jobs.end[rows], jobs.start[rows], gpu))
        all_starts, all_ends = jobs.start[rows[order]], jobs.end[rows[order]]
        all_ids = jobs.job_id[rows[order]]
        codes, first = np.unique(gpu, return_index=True)
        bounds = np.searchsorted(gpu[order], codes, side="left").tolist() + [len(order)]
        segment = {code: (bounds[i], bounds[i + 1]) for i, code in enumerate(codes.tolist())}
        self._gpus: List[GpuKey] = sorted(jobs.gpu_dict[code] for code in segment)
        self._starts: Dict[GpuKey, np.ndarray] = {}
        self._ends: Dict[GpuKey, np.ndarray] = {}
        self._job_ids: Dict[GpuKey, np.ndarray] = {}
        busy_lengths = []
        # Busy weights in the order each GPU first appears in the table.
        for code in codes[np.argsort(first, kind="stable")].tolist():
            lo, hi = segment[code]
            gpu_key = jobs.gpu_dict[code]
            starts, ends = all_starts[lo:hi], all_ends[lo:hi]
            self._starts[gpu_key] = starts
            self._ends[gpu_key] = ends
            self._job_ids[gpu_key] = all_ids[lo:hi]
            # Busy time is clipped to the observation window so utilization
            # stays a fraction even when queued jobs run past the window.
            clipped = np.clip(ends, None, window_seconds) - np.clip(
                starts, None, window_seconds
            )
            busy_lengths.append(float(np.maximum(clipped, 0.0).sum()))
        self._busy_lengths = np.array(busy_lengths) if busy_lengths else np.zeros(0)
        self._busy_cumulative = np.cumsum(self._busy_lengths)

    # -- lookup ----------------------------------------------------------

    def job_at(self, gpu: GpuKey, time: float) -> Optional[int]:
        """The job ID running on ``gpu`` at ``time`` (None if idle)."""
        starts = self._starts.get(gpu)
        if starts is None or starts.size == 0:
            return None
        index = int(np.searchsorted(starts, time, side="right")) - 1
        if index >= 0 and time < float(self._ends[gpu][index]):
            return int(self._job_ids[gpu][index])
        return None

    def utilization(self, gpu_population: int | None = None) -> float:
        """Busy fraction over (tracked or given) GPUs and the window."""
        n = gpu_population if gpu_population is not None else len(self._gpus)
        if n == 0 or self.window_seconds <= 0:
            return 0.0
        return float(self._busy_lengths.sum()) / (n * self.window_seconds)

    # -- sampling (the injector's OccupancySampler protocol) -------------

    def sample_busy(
        self, rng: np.random.Generator, n: int
    ) -> Tuple[List[GpuKey], np.ndarray]:
        """``n`` (GPU, time) points weighted by busy GPU-time."""
        if n <= 0 or not self._gpus or self._busy_cumulative[-1] <= 0:
            return [], np.zeros(0)
        picks = rng.uniform(0.0, self._busy_cumulative[-1], size=n)
        gpu_idx = np.searchsorted(self._busy_cumulative, picks, side="right")
        gpus: List[GpuKey] = []
        times = np.empty(n)
        for i, g_index in enumerate(gpu_idx):
            gpu = self._gpus[int(g_index)]
            starts = np.minimum(self._starts[gpu], self.window_seconds)
            ends = np.minimum(self._ends[gpu], self.window_seconds)
            lengths = np.maximum(ends - starts, 0.0)
            cumulative = np.cumsum(lengths)
            offset = rng.uniform(0.0, cumulative[-1])
            k = int(np.searchsorted(cumulative, offset, side="right"))
            k = min(k, len(starts) - 1)
            prior = cumulative[k - 1] if k > 0 else 0.0
            times[i] = starts[k] + (offset - prior)
            gpus.append(gpu)
        return gpus, times

    def sample_idle(self, rng: np.random.Generator, n: int) -> Tuple[List[GpuKey], np.ndarray]:
        """``n`` (GPU, time) points with no job active (rejection sampling)."""
        if n <= 0:
            return [], np.zeros(0)
        pool = self._gpus
        if not pool:
            return [], np.zeros(0)
        gpus: List[GpuKey] = []
        times: List[float] = []
        attempts = 0
        max_attempts = 50 * n + 100
        while len(gpus) < n and attempts < max_attempts:
            attempts += 1
            gpu = pool[int(rng.integers(0, len(pool)))]
            t = float(rng.uniform(0.0, self.window_seconds))
            if self.job_at(gpu, t) is None:
                gpus.append(gpu)
                times.append(t)
        # Pathologically full schedules: fall back to busy placement rather
        # than spinning forever.
        while len(gpus) < n:
            extra_gpus, extra_times = self.sample_busy(rng, n - len(gpus))
            if not extra_gpus:
                break
            gpus.extend(extra_gpus)
            times.extend(float(t) for t in extra_times)
        return gpus, np.array(times)


@dataclass
class Schedule:
    """The placed workload plus its GPU population."""

    jobs: JobTable
    window_seconds: float
    gpu_population: Tuple[GpuKey, ...]
    dropped_jobs: int = 0
    _occupancy: OccupancyIndex | None = field(default=None, repr=False)

    @property
    def occupancy(self) -> OccupancyIndex:
        if self._occupancy is None:
            self._occupancy = OccupancyIndex(self.jobs, self.window_seconds)
        return self._occupancy

    def utilization(self) -> float:
        return self.occupancy.utilization(gpu_population=len(self.gpu_population))


class GpuScheduler:
    """Earliest-available GPU scheduler with drain-style blackouts."""

    def __init__(
        self,
        cluster: ClusterInventory,
        *,
        blackouts: Mapping[GpuKey, Sequence[Interval]] | None = None,
    ) -> None:
        self.cluster = cluster
        self._blackouts: Dict[GpuKey, List[Interval]] = {
            gpu: sorted(intervals) for gpu, intervals in (blackouts or {}).items()
        }
        self._pools: Dict[str, List[GpuKey]] = {}
        for partition, kinds in PARTITIONS.items():
            gpus = [
                gpu.key
                for node in cluster.nodes_of_kind(*kinds)
                for gpu in node.gpus
            ]
            self._pools[partition] = gpus

    def schedule(self, jobs: Sequence[JobSpec], window_seconds: float) -> Schedule:
        """Place every job; jobs whose start would fall past the window are
        dropped (counted in ``Schedule.dropped_jobs``)."""
        # Each partition's GPUs as one list of (release, gpu), kept sorted:
        # the earliest-available GPUs are its head.
        pools: Dict[str, List[Tuple[float, GpuKey]]] = {
            partition: sorted((0.0, gpu) for gpu in gpus)
            for partition, gpus in self._pools.items()
        }
        placed = JobTableBuilder()
        dropped = 0
        for spec in sorted(jobs, key=lambda j: j.submit_time):
            pool = pools.get(spec.partition)
            if not pool:
                dropped += 1
                continue
            k = min(spec.requested_gpus, len(pool))
            taken = self._allocate(pool, spec.submit_time, k)
            start = max(ready for ready, _ in taken)
            if start >= window_seconds:
                # Never starts inside the window: the GPUs return, ready
                # from when this job would have started on each.
                for entry in taken:
                    insort(pool, entry)
                dropped += 1
                continue
            end = start + spec.duration
            for _, gpu in taken:
                insort(pool, (end, gpu))
            placed.append(
                spec.job_id, spec.name, spec.user, spec.submit_time, start, end, k,
                spec.partition, spec.is_ml, spec.natural_state,
                spec.natural_exit_code, NO_XID, [gpu for _, gpu in taken],
            )
        all_gpus = tuple(g for pool in self._pools.values() for g in pool)
        return Schedule(
            jobs=placed.build(),
            window_seconds=window_seconds,
            gpu_population=all_gpus,
            dropped_jobs=dropped,
        )

    def _allocate(
        self, pool: List[Tuple[float, GpuKey]], submit_time: float, k: int
    ) -> List[Tuple[float, GpuKey]]:
        """Take the ``k`` earliest-available GPUs of a sorted ``pool``,
        packed onto one node when a single node can host the job; returns
        their ``(ready, gpu)`` and removes only them from the pool.

        Slurm packs small GPU jobs within a node; node spread matters to the
        analysis because a job's *node*-hours (Figure 9a's loss accounting)
        and its exposure to node-local errors scale with it.
        """
        blackouts = self._blackouts
        if k == 1:
            # The window below would pick the pool head whenever no
            # blackout delays it: every other candidate is ready no earlier
            # than its own release, which is no earlier than the head's,
            # and ties break on (release, gpu).
            release, gpu = pool[0]
            ready = max(submit_time, release)
            if gpu not in blackouts or self._skip_blackout(gpu, ready) == ready:
                del pool[0]
                return [(ready, gpu)]
        # A candidate window at the pool head: enough to usually contain a
        # same-node set.
        head = pool[: max(4 * k, 24)]
        if not blackouts.keys().isdisjoint(map(itemgetter(1), head)):
            candidates = sorted(  # (ready, release, gpu)
                (self._skip_blackout(gpu, max(submit_time, release)), release, gpu)
                for release, gpu in head
            )
        else:
            # ready = max(submit, release) keeps the head's order.
            candidates = [
                (max(submit_time, release), release, gpu) for release, gpu in head
            ]

        # Packing must never delay the job materially: only candidates ready
        # within a bounded slack of the plain earliest-k start are eligible
        # for node-grouping; within that set, fewer nodes win.
        plain_start = candidates[k - 1][0]
        slack = 600.0  # seconds of start delay we trade for packing
        by_node: Dict[str, List[Tuple[float, float, GpuKey]]] = {}
        for item in candidates:
            if item[0] > plain_start + slack:
                break
            by_node.setdefault(item[2][0], []).append(item)
        packable = [group for group in by_node.values() if len(group) >= k]
        if packable:
            chosen = min(
                (group[:k] for group in packable),
                key=lambda group: group[-1][0],
            )
        else:
            # Multi-node job: fill the largest eligible nodes first, topping
            # up with the earliest leftovers.
            chosen = []
            for group in sorted(by_node.values(), key=len, reverse=True):
                if len(chosen) >= k:
                    break
                chosen.extend(group[: k - len(chosen)])
            if len(chosen) < k:
                taken_keys = {gpu for _, _, gpu in chosen}
                for item in candidates:
                    if len(chosen) >= k:
                        break
                    if item[2] not in taken_keys:
                        chosen.append(item)

        # Candidates not chosen stay in the pool with their *original*
        # release, so later jobs are not penalized by this job's blackout
        # skips.
        for _, release, gpu in chosen:
            del pool[bisect_left(pool, (release, gpu))]
        return [(ready, gpu) for ready, _, gpu in chosen]

    def _skip_blackout(self, gpu: GpuKey, ready: float) -> float:
        """Advance ``ready`` past any blackout (drain) interval covering it."""
        intervals = self._blackouts.get(gpu)
        if not intervals:
            return ready
        for start, end in intervals:
            if start <= ready < end:
                ready = end
            elif start > ready:
                break
        return ready
