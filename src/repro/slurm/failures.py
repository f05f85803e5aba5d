"""Coupling GPU errors to jobs and nodes.

This stage merges the hardware fault trace with the scheduled workload:

* buggy jobs emit their MMU errors (and user-induced XID 13/43 events) at
  concrete times on their allocated GPUs;
* every error is matched against the job running on its GPU; the first
  encounter of each (job, XID) pair draws a failure from the paper's
  Table-2 probability model, terminating the job within the 20-second
  attribution window;
* errors are grouped per node into repair incidents with sampled
  drain-plus-reboot durations (the paper's Figure 9c distribution),
  becoming :class:`~repro.slurm.accounting.NodeEvent` rows.

The output is the *observable* dataset — final job records, node events, and
the merged error trace to be rendered as syslog.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.faults.calibration import CalibrationProfile
from repro.faults.events import ErrorEvent, FaultTrace
from repro.faults.injector import COALESCE_GUARD_SECONDS
from repro.faults.xid import Xid, is_studied
from repro.slurm.accounting import NodeEvent
from repro.slurm.job import ExitCode, GpuKey, JobSpec, JobState, JobTable
from repro.slurm.scheduler import Schedule
from repro.util.rng import RngStreams

#: Delay between a fatal error and the job's recorded end (must stay
#: inside the pipeline's attribution window for it to classify the job).
FAILURE_DELAY_RANGE: Tuple[float, float] = (2.0, 15.0)
#: Long-running jobs carry checkpoint/retry machinery that masks MMU
#: errors (paper Section 5.3 / Figure 9b: >4,000-minute jobs encounter
#: multiple MMU errors yet run to completion), so their per-job MMU
#: failure probability is scaled down.
LONG_JOB_MINUTES = 4_000.0
LONG_JOB_MMU_FAILURE_SCALE = 0.15


@dataclass
class CouplingResult:
    """Observable dataset pieces plus generation-side ground truth."""

    jobs: JobTable
    trace: FaultTrace
    node_events: List[NodeEvent]
    #: Event index (into ``trace.events``) -> owning pid, for the renderer.
    pids: Dict[int, int]
    #: Ground truth for tests: per-XID sets of encountering/failed job IDs.
    truth_encounters: Dict[Xid, Set[int]] = field(default_factory=dict)
    truth_failures: Dict[Xid, Set[int]] = field(default_factory=dict)

#: Inoperable-class codes terminate jobs as NODE_FAIL; the rest surface as
#: in-job crashes (the paper's Incident 1 segfault).
_NODE_FAIL_XIDS = {Xid.GSP, Xid.FALLEN_OFF_BUS, Xid.UNCONTAINED, Xid.RRF}


class FailureCoupler:
    """Apply the error->job and error->node coupling models."""

    def __init__(self, profile: CalibrationProfile, seed: int):
        self.profile = profile
        self._streams = RngStreams(seed).fork("coupling", profile.name)

    # ------------------------------------------------------------------

    def couple(
        self,
        schedule: Schedule,
        trace: FaultTrace,
        specs: Sequence[JobSpec],
        mmu_budget: float | None = None,
    ) -> CouplingResult:
        spec_by_id = {spec.job_id: spec for spec in specs}
        jobs = schedule.jobs
        job_ids = jobs.job_id.tolist()
        row_of = {job_id: row for row, job_id in enumerate(job_ids)}
        elapsed = jobs.elapsed.tolist()

        workload_events, owners = self._emit_workload_events(
            schedule, spec_by_id, mmu_budget
        )
        merged = sorted(
            [(e, None) for e in trace.events] + list(zip(workload_events, owners)),
            key=lambda pair: pair[0].time,
        )

        occupancy = schedule.occupancy
        rng = self._streams.get("failures")
        current_end: Dict[int, float] = dict(zip(job_ids, jobs.end.tolist()))
        decided: Set[Tuple[int, Xid]] = set()
        failure_info: Dict[int, Tuple[float, Xid]] = {}
        truth_encounters: Dict[Xid, Set[int]] = {}
        truth_failures: Dict[Xid, Set[int]] = {}

        kept_events: List[ErrorEvent] = []
        kept_owner: List[Optional[int]] = []
        for event, owner in merged:
            job_id = owner
            if job_id is None:
                job_id = occupancy.job_at(event.gpu_key, event.time)
            if job_id is not None and event.time >= current_end.get(job_id, -1.0):
                job_id = None  # the job already ended (possibly killed earlier)
                if owner is not None:
                    continue  # a dead process emits nothing: drop the event
            kept_events.append(event)
            kept_owner.append(job_id)
            if job_id is None:
                continue
            xid = event.xid
            if not is_studied(xid):
                continue  # user-induced codes don't enter Table 2
            truth_encounters.setdefault(xid, set()).add(job_id)
            key = (job_id, xid)
            if key in decided:
                continue
            decided.add(key)
            prob = self.profile.xids[xid].job_failure_prob if xid in self.profile.xids else 1.0
            if xid is Xid.MMU:
                row = row_of.get(job_id)
                if row is not None and elapsed[row] >= LONG_JOB_MINUTES * 60.0:
                    prob *= LONG_JOB_MMU_FAILURE_SCALE
            if rng.random() < prob:
                delay = rng.uniform(*FAILURE_DELAY_RANGE)
                end = min(event.time + delay, current_end[job_id])
                # A failure must land strictly after the error to be
                # attributable; clamp within the job's natural lifetime.
                end = max(end, event.time + 0.5)
                current_end[job_id] = end
                failure_info[job_id] = (end, xid)
                truth_failures.setdefault(xid, set()).add(job_id)

        final_jobs = self._apply_failures(jobs, row_of, failure_info)
        final_trace = FaultTrace(
            events=kept_events,
            window_seconds=trace.window_seconds,
            node_ids=trace.node_ids,
            seed=trace.seed,
        )
        pids = self._pid_map(final_trace, kept_events, kept_owner)
        node_events = self._repair_incidents(final_trace)
        return CouplingResult(
            jobs=final_jobs,
            trace=final_trace,
            node_events=node_events,
            pids=pids,
            truth_encounters=truth_encounters,
            truth_failures=truth_failures,
        )

    # ------------------------------------------------------------------

    def _emit_workload_events(
        self,
        schedule: Schedule,
        spec_by_id: Dict[int, JobSpec],
        mmu_budget: float | None = None,
    ) -> Tuple[List[ErrorEvent], List[int]]:
        """MMU emissions from buggy jobs plus user-induced XID 13/43 events.

        Failing buggy jobs stop emitting once killed, and buggy jobs the
        scheduler dropped never run at all; to keep the realized MMU total
        on ``mmu_budget`` (defaulting to the scheduled jobs' planned sum)
        despite both effects, planned per-job counts are inflated by a
        numerically-solved survival factor.
        """
        rng = self._streams.get("workload-events")
        base_p = (
            self.profile.xids[Xid.MMU].job_failure_prob
            if Xid.MMU in self.profile.xids
            else 0.5
        )

        jobs = schedule.jobs
        job_ids = jobs.job_id.tolist()
        elapsed = jobs.elapsed.tolist()

        def p_of(row: int) -> float:
            if elapsed[row] >= LONG_JOB_MINUTES * 60.0:
                return base_p * LONG_JOB_MMU_FAILURE_SCALE
            return base_p

        buggy = [
            (row, spec_by_id[job_id].mmu_emissions)
            for row, job_id in enumerate(job_ids)
            if spec_by_id.get(job_id) and spec_by_id[job_id].mmu_emissions > 0
        ]
        planned = mmu_budget if mmu_budget is not None else sum(k for _, k in buggy)
        # A failing buggy job dies at its *first* emission (the coupling
        # decides failure at first encounter), so it realizes exactly one
        # event regardless of its plan; a surviving job realizes all of its
        # (inflated, integer-rounded) k.  Search the inflation factor whose
        # expected realized total lands on the budget.
        inflation = 1.0
        if planned > 0 and buggy and base_p < 1.0:

            def realized(factor: float) -> float:
                return sum(
                    p_of(row) + (1.0 - p_of(row)) * max(1, round(k * factor))
                    for row, k in buggy
                )

            lo, hi = 0.2, 5.0
            for _ in range(40):
                mid = (lo + hi) / 2.0
                if realized(mid) < planned:
                    lo = mid
                else:
                    hi = mid
            inflation = (lo + hi) / 2.0

        events: List[ErrorEvent] = []
        owners: List[int] = []
        persistence_model = (
            self.profile.xids[Xid.MMU].persistence if Xid.MMU in self.profile.xids else None
        )
        starts, ends = jobs.start.tolist(), jobs.end.tolist()
        offsets, gpu_dict = jobs.offsets.tolist(), jobs.gpu_dict

        def pick_gpu(row: int) -> GpuKey:
            lo, hi = offsets[row], offsets[row + 1]
            return gpu_dict[jobs.gpu[lo + int(rng.integers(0, hi - lo))]]

        for row, k in buggy:
            k = max(1, int(round(k * inflation)))
            span = max(elapsed[row], 1.0)
            times = np.sort(rng.uniform(starts[row], starts[row] + span, size=k))
            gpu = pick_gpu(row)
            durations = (
                persistence_model.sample(rng, k) if persistence_model is not None
                else np.zeros(k)
            )
            # Keep same-GPU MMU events separated beyond the coalescing window.
            last_end = -np.inf
            for t, d in zip(times, durations):
                t = max(t, last_end + COALESCE_GUARD_SECONDS)
                last_end = t + d
                events.append(
                    ErrorEvent(
                        time=float(t),
                        node_id=gpu[0],
                        pci_bus=gpu[1],
                        xid=Xid.MMU,
                        persistence=float(d),
                    )
                )
                owners.append(job_ids[row])

        for row, job_id in enumerate(job_ids):
            spec = spec_by_id.get(job_id)
            if spec is None:
                continue
            for xid, count in ((Xid.GENERAL_SW, spec.xid13_emissions),
                               (Xid.RESET_CHANNEL, spec.xid43_emissions)):
                for _ in range(count):
                    t = float(rng.uniform(starts[row], ends[row]))
                    gpu = pick_gpu(row)
                    events.append(
                        ErrorEvent(time=t, node_id=gpu[0], pci_bus=gpu[1], xid=xid)
                    )
                    owners.append(job_id)
        return events, owners

    # ------------------------------------------------------------------

    def _apply_failures(
        self, jobs: JobTable, row_of: Dict[int, int],
        failure_info: Dict[int, Tuple[float, Xid]],
    ) -> JobTable:
        rows, times, xids, states, codes = [], [], [], [], []
        for job_id, (end, xid) in failure_info.items():
            rows.append(row_of[job_id])
            times.append(end)
            xids.append(int(xid))
            if xid in _NODE_FAIL_XIDS:
                states.append(JobState.NODE_FAIL)
                codes.append(int(ExitCode.GENERIC))
            else:
                states.append(JobState.FAILED)
                codes.append(int(ExitCode.SEGFAULT))
        return jobs.failed(rows, times, xids, states, codes)

    def _pid_map(
        self,
        trace: FaultTrace,
        original_events: List[ErrorEvent],
        owners: List[Optional[int]],
    ) -> Dict[int, int]:
        """Map trace event indices to synthetic pids of owning jobs."""
        owner_by_key: Dict[Tuple[float, str, str, int], int] = {}
        for event, owner in zip(original_events, owners):
            if owner is not None:
                owner_by_key[(event.time, event.node_id, event.pci_bus, int(event.xid))] = owner
        pids: Dict[int, int] = {}
        for index, event in enumerate(trace.events):
            owner = owner_by_key.get(
                (event.time, event.node_id, event.pci_bus, int(event.xid))
            )
            if owner is not None:
                pids[index] = 10_000 + owner % 50_000
        return pids

    # ------------------------------------------------------------------

    def _repair_incidents(self, trace: FaultTrace) -> List[NodeEvent]:
        """Group studied errors per node into repair incidents.

        Mirrors the paper's conservative downtime accounting: every error
        group triggers a node service action whose duration is drawn from
        the Figure-9c repair mixture.
        """
        rng = self._streams.get("repairs")
        merge_window = self.profile.repair.incident_merge_window
        per_node: Dict[str, List[ErrorEvent]] = {}
        for event in trace.events:
            if not is_studied(event.xid):
                continue
            per_node.setdefault(event.node_id, []).append(event)

        incidents: List[Tuple[str, float, str]] = []
        for node_id, events in per_node.items():
            events.sort(key=lambda e: e.time)
            group_start = None
            group_last = None
            group_xid = None
            for event in events:
                if group_start is None or event.time - group_last > merge_window:
                    if group_start is not None:
                        incidents.append((node_id, group_start, f"xid{int(group_xid)}"))
                    group_start = event.time
                    group_xid = event.xid
                group_last = event.time
            if group_start is not None:
                incidents.append((node_id, group_start, f"xid{int(group_xid)}"))

        if not incidents:
            return []
        durations = self.profile.repair.sample_hours(rng, len(incidents))
        return [
            NodeEvent(node_id=node, start_time=start, duration_hours=float(d), reason=reason)
            for (node, start, reason), d in zip(incidents, durations)
        ]
