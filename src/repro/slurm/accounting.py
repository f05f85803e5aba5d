"""Slurm accounting database: job rows and node availability events.

A light stand-in for the ``sacct``/``sacctmgr event list`` tables the paper
mined: job completion records plus node DOWN/DRAIN intervals.  Supports
round-tripping through JSON-lines files so examples can persist datasets.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Sequence

from repro.slurm.job import JobRecord, JobState


@dataclass(frozen=True)
class NodeEvent:
    """One node-unavailability interval (drain + reboot/repair)."""

    node_id: str
    start_time: float
    duration_hours: float
    reason: str  # e.g. "xid119", "xid95"


class SlurmDatabase:
    """Job accounting plus node events, with simple query helpers."""

    def __init__(
        self,
        jobs: Sequence[JobRecord],
        node_events: Sequence[NodeEvent] = (),
        window_seconds: float = 0.0,
    ) -> None:
        self.jobs: List[JobRecord] = sorted(jobs, key=lambda j: j.start_time)
        self.node_events: List[NodeEvent] = sorted(node_events, key=lambda e: e.start_time)
        self.window_seconds = window_seconds

    def __len__(self) -> int:
        return len(self.jobs)

    # -- queries ----------------------------------------------------------

    def completed_jobs(self) -> List[JobRecord]:
        return [j for j in self.jobs if j.succeeded]

    def success_rate(self) -> float:
        if not self.jobs:
            return 0.0
        return len(self.completed_jobs()) / len(self.jobs)

    def total_downtime_node_hours(self) -> float:
        return sum(e.duration_hours for e in self.node_events)

    # -- persistence --------------------------------------------------------

    def save(self, path: str | Path) -> None:
        """Write the database as JSON lines (jobs, then node events)."""
        path = Path(path)
        with open(path, "w", encoding="utf-8") as handle:
            meta = {"kind": "meta", "window_seconds": self.window_seconds}
            handle.write(json.dumps(meta) + "\n")
            for job in self.jobs:
                handle.write(json.dumps(_job_to_dict(job)) + "\n")
            for event in self.node_events:
                handle.write(json.dumps(_event_to_dict(event)) + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "SlurmDatabase":
        jobs: List[JobRecord] = []
        events: List[NodeEvent] = []
        window = 0.0
        with open(path, "r", encoding="utf-8") as handle:
            for line in handle:
                row = json.loads(line)
                kind = row.pop("kind")
                if kind == "meta":
                    window = row["window_seconds"]
                elif kind == "job":
                    jobs.append(_job_from_dict(row))
                elif kind == "node_event":
                    events.append(NodeEvent(**row))
                else:  # defensive: unknown rows are an input error
                    raise ValueError(f"unknown row kind {kind!r} in {path}")
        return cls(jobs, events, window_seconds=window)


def _job_to_dict(job: JobRecord) -> Dict:
    return {
        "kind": "job",
        "job_id": job.job_id,
        "name": job.name,
        "user": job.user,
        "submit_time": job.submit_time,
        "start_time": job.start_time,
        "end_time": job.end_time,
        "n_gpus": job.n_gpus,
        "gpus": [list(g) for g in job.gpus],
        "partition": job.partition,
        "is_ml": job.is_ml,
        "state": job.state.value,
        "exit_code": job.exit_code,
        "truth_failed_by_xid": job.truth_failed_by_xid,
    }


def _job_from_dict(row: Dict) -> JobRecord:
    return JobRecord(
        job_id=row["job_id"],
        name=row["name"],
        user=row["user"],
        submit_time=row["submit_time"],
        start_time=row["start_time"],
        end_time=row["end_time"],
        n_gpus=row["n_gpus"],
        gpus=tuple((node, bus) for node, bus in row["gpus"]),
        partition=row["partition"],
        is_ml=row["is_ml"],
        state=JobState(row["state"]),
        exit_code=row["exit_code"],
        truth_failed_by_xid=row.get("truth_failed_by_xid"),
    )


def _event_to_dict(event: NodeEvent) -> Dict:
    return {
        "kind": "node_event",
        "node_id": event.node_id,
        "start_time": event.start_time,
        "duration_hours": event.duration_hours,
        "reason": event.reason,
    }
