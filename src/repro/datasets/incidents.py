"""Single-incident scenario builders (paper Figure 1 and Figure 8).

Each builder returns a tiny, fully deterministic dataset reproducing one of
the narrated incidents, for forensics examples and integration tests:

* :func:`gsp_incident` — Figure 1: a GSP RPC timeout stalls GPU control
  functions; the scheduled job fails; the node is drained and rebooted, a
  23-hour recovery.
* :func:`nvlink_multinode_incident` — Figure 8, Incident 1: an NVLink error
  on one GPU of a 4-node job causes an MPI failure and a segfault
  (EXITSTATUS 139) for the whole job.
* :func:`pmu_mmu_incident` — Figure 8, Incident 2: a PMU SPI communication
  error propagates to an MMU error, killing the job on that GPU.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.cluster.inventory import ClusterInventory, DeltaShape, build_delta_cluster
from repro.cluster.node import NodeKind
from repro.faults.events import ErrorEvent, FaultTrace
from repro.faults.xid import Xid
from repro.slurm.accounting import NodeEvent, SlurmDatabase
from repro.slurm.job import ExitCode, JobRecord, JobState, JobTable

#: All incident scenarios play out inside a two-day window.
_WINDOW = 2 * 86400.0


@dataclass(frozen=True)
class IncidentDataset:
    """A miniature observable dataset for one incident."""

    cluster: ClusterInventory
    trace: FaultTrace
    slurm_db: SlurmDatabase
    narrative: str

    def log_lines(self) -> List[str]:
        from repro.syslog.format import render_trace

        return list(render_trace(self.trace.events, seed=1))


def _small_cluster() -> ClusterInventory:
    return build_delta_cluster(DeltaShape(1, 2, 4, 1, 1))


def gsp_incident() -> IncidentDataset:
    """Figure 1: GSP error -> GPU inoperable -> job failure -> 23 h recovery."""
    cluster = _small_cluster()
    node = cluster.nodes_of_kind(NodeKind.A100_X4)[0]
    gpu = node.gpus[0]
    t_error = 40_000.0
    trace = FaultTrace(
        events=[
            ErrorEvent(
                time=t_error,
                node_id=node.node_id,
                pci_bus=gpu.pci_bus,
                xid=Xid.GSP,
                persistence=45.0,
                inoperable=True,
            )
        ],
        window_seconds=_WINDOW,
        node_ids=(node.node_id,),
    )
    job = JobRecord(
        job_id=1,
        name="llm_finetune",
        user="u042",
        submit_time=t_error - 7_500.0,
        start_time=t_error - 7_200.0,
        end_time=t_error + 9.0,
        n_gpus=1,
        gpus=(gpu.key,),
        partition="a100",
        is_ml=True,
        state=JobState.NODE_FAIL,
        exit_code=int(ExitCode.GENERIC),
        truth_failed_by_xid=int(Xid.GSP),
    )
    drain = NodeEvent(
        node_id=node.node_id,
        start_time=t_error,
        duration_hours=23.0,
        reason="xid119",
    )
    return IncidentDataset(
        cluster=cluster,
        trace=trace,
        slurm_db=SlurmDatabase(JobTable.from_records([job]), [drain], window_seconds=_WINDOW),
        narrative=(
            "A GSP RPC timeout stalled GPU control functions and rendered the "
            "GPU inoperable; the job scheduled on it failed, and recovering "
            "the node (drain + full reboot) took 23 node-hours."
        ),
    )


def nvlink_multinode_incident() -> IncidentDataset:
    """Figure 8, Incident 1: one NVLink error fails a 4-node MPI job."""
    cluster = _small_cluster()
    nodes = cluster.nodes_of_kind(NodeKind.A100_X4)
    gpus = tuple(node.gpus[0].key for node in nodes[:4])
    t_error = 60_000.0
    faulty = gpus[1]
    trace = FaultTrace(
        events=[
            ErrorEvent(
                time=t_error,
                node_id=faulty[0],
                pci_bus=faulty[1],
                xid=Xid.NVLINK,
                persistence=1.1,
                inoperable=True,
            )
        ],
        window_seconds=_WINDOW,
        node_ids=tuple(sorted({g[0] for g in gpus})),
    )
    job = JobRecord(
        job_id=2,
        name="namd_run",
        user="u117",
        submit_time=t_error - 4_000.0,
        start_time=t_error - 3_600.0,
        end_time=t_error + 6.0,
        n_gpus=4,
        gpus=gpus,
        partition="a100",
        is_ml=False,
        state=JobState.FAILED,
        exit_code=int(ExitCode.SEGFAULT),
        truth_failed_by_xid=int(Xid.NVLINK),
    )
    reset = NodeEvent(
        node_id=faulty[0], start_time=t_error, duration_hours=0.4, reason="xid74"
    )
    return IncidentDataset(
        cluster=cluster,
        trace=trace,
        slurm_db=SlurmDatabase(JobTable.from_records([job]), [reset], window_seconds=_WINDOW),
        narrative=(
            "An NVLink error on one GPU raised an MPI communication failure; "
            "the job needed all four GPUs (on four nodes), so the whole job "
            "died with a segmentation fault (EXITSTATUS 139)."
        ),
    )


def pmu_mmu_incident() -> IncidentDataset:
    """Figure 8, Incident 2: PMU SPI error propagates to an MMU error."""
    cluster = _small_cluster()
    node = cluster.nodes_of_kind(NodeKind.A40_X4)[0]
    gpu = node.gpus[2]
    t_error = 100_000.0
    trace = FaultTrace(
        events=[
            ErrorEvent(
                time=t_error,
                node_id=node.node_id,
                pci_bus=gpu.pci_bus,
                xid=Xid.PMU_SPI,
                persistence=0.06,
                chain_id=1,
                chain_pos=0,
            ),
            ErrorEvent(
                time=t_error + 2.1,
                node_id=node.node_id,
                pci_bus=gpu.pci_bus,
                xid=Xid.MMU,
                persistence=2.8,
                chain_id=1,
                chain_pos=1,
            ),
        ],
        window_seconds=_WINDOW,
        node_ids=(node.node_id,),
    )
    job = JobRecord(
        job_id=3,
        name="train_gnn",
        user="u201",
        submit_time=t_error - 2_100.0,
        start_time=t_error - 1_800.0,
        end_time=t_error + 12.0,
        n_gpus=1,
        gpus=(gpu.key,),
        partition="a40",
        is_ml=True,
        state=JobState.FAILED,
        exit_code=int(ExitCode.SEGFAULT),
        truth_failed_by_xid=int(Xid.MMU),
    )
    return IncidentDataset(
        cluster=cluster,
        trace=trace,
        slurm_db=SlurmDatabase(JobTable.from_records([job]), [], window_seconds=_WINDOW),
        narrative=(
            "A failed SPI communication with the power management unit "
            "cascaded into an MMU error (power/frequency scaling fault), "
            "killing the job on that GPU — peripheral hardware as a "
            "resilience weak link."
        ),
    )
