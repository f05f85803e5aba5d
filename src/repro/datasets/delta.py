"""Synthesize a complete Delta-like dataset.

``synthesize_delta`` runs the full substrate pipeline:

1. build the Delta cluster (Figure 2 shape);
2. generate the Table-3-shaped workload and a preliminary schedule (the
   occupancy oracle for placement bias);
3. inject the calibrated hardware fault trace;
4. derive drain/cordon intervals for offender GPUs from the trace (SREs
   repeatedly cordon defective parts) and re-schedule against them;
5. couple errors to jobs (encounters, Table-2 failures, MMU emissions,
   repair incidents);
6. expose the observables: raw syslog lines and the Slurm database.

The ground-truth trace and coupling truth ride along for tests but are
never consumed by the analysis pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

from repro import obs
from repro.cluster.inventory import ClusterInventory, build_delta_cluster
from repro.faults.calibration import (
    AMPERE_CALIBRATION,
    H100_CALIBRATION,
    CalibrationProfile,
)
from repro.faults.events import FaultTrace
from repro.faults.injector import FaultInjector, InjectorConfig
from repro.slurm.accounting import SlurmDatabase
from repro.slurm.failures import CouplingResult, FailureCoupler
from repro.slurm.job import JobTable
from repro.slurm.scheduler import GpuScheduler, Interval, Schedule
from repro.slurm.workload import WorkloadConfig, WorkloadModel
from repro.syslog.format import render_node_lines
from repro.syslog.noise import generate_noise_lines
from repro.syslog.writer import write_node_logs
from repro.util.rng import spawn_rng

GpuKey = Tuple[str, str]

#: Probability each offender-GPU error episode is cordoned by SREs
#: (drained: no new jobs placed), keeping Table 2's encounter counts in
#: the regime the paper observed.
CORDON_PROB = 0.7
#: Events on one GPU within this gap merge into one cordon episode.
CORDON_EPISODE_GAP = 4 * 3600.0
#: GPUs with at least this many events of one code count as offenders.
CORDON_EVENT_THRESHOLD = 60


@dataclass(frozen=True)
class DeltaDatasetConfig:
    """Dataset generation knobs (defaults favour fast, test-sized runs)."""

    scale: float = 0.05
    seed: int = 7
    with_jobs: bool = True


@dataclass
class DeltaDataset:
    """Observables plus ground truth for one synthesized dataset."""

    cluster: ClusterInventory
    profile: CalibrationProfile
    config: DeltaDatasetConfig
    trace: FaultTrace
    slurm_db: SlurmDatabase
    pids: Dict[int, int]
    truth: Optional[CouplingResult] = None
    schedule: Optional[Schedule] = None

    @property
    def window_seconds(self) -> float:
        return self.trace.window_seconds

    @property
    def window_hours(self) -> float:
        return self.profile.window_hours(self.config.scale)

    @property
    def reference_node_count(self) -> int:
        return self.profile.reference_node_count

    @property
    def reference_gpu_count(self) -> int:
        """GPU population of the partition this dataset models (mirrors
        the injector's Ampere-vs-Hopper node selection)."""
        if self.profile.name.endswith("h100"):
            nodes = self.cluster.hopper_nodes
        else:
            nodes = self.cluster.ampere_nodes
        return sum(len(node.gpus) for node in nodes)

    # -- observables ------------------------------------------------------

    def _node_lines(self, include_noise: bool) -> Iterator[Tuple[str, List[str]]]:
        """The raw syslog as ``(node, lines)``: each event's lines, then
        each node's benign noise."""
        yield from render_node_lines(self.trace.events, seed=self.config.seed, pids=self.pids)
        if include_noise:
            yield from generate_noise_lines(
                self.trace.node_ids, self.window_seconds, self.config.seed
            )

    def log_lines(self, *, include_noise: bool = True) -> Iterator[str]:
        """Stream the dataset's raw syslog (XID lines plus benign noise)."""
        for _, lines in self._node_lines(include_noise):
            yield from lines

    def write_logs(self, directory: str | Path, *, compress: bool = False) -> List[Path]:
        """Write the raw syslog as one file per node."""
        with obs.span("datasets.write_logs"):
            by_node: Dict[str, List[str]] = {}
            for node_id, lines in self._node_lines(include_noise=True):
                by_node.setdefault(node_id, []).extend(lines)
            return write_node_logs(by_node, directory, compress=compress)

    def save_slurm_db(self, path: str | Path) -> None:
        self.slurm_db.save(path)


# ---------------------------------------------------------------------------


def synthesize_delta(
    *,
    scale: float = 0.05,
    seed: int = 7,
    profile: CalibrationProfile = AMPERE_CALIBRATION,
    config: DeltaDatasetConfig | None = None,
    cluster: ClusterInventory | None = None,
    workload_config: WorkloadConfig | None = None,
) -> DeltaDataset:
    """Build the Ampere (Table 1) dataset at the given scale."""
    config = config or DeltaDatasetConfig(scale=scale, seed=seed)
    cluster = cluster or build_delta_cluster()
    injector = FaultInjector(
        profile,
        InjectorConfig(
            scale=config.scale, seed=config.seed, workload_mmu_external=config.with_jobs
        ),
    )
    window = injector.window_seconds

    if not config.with_jobs:
        trace = injector.generate(cluster)
        return DeltaDataset(
            cluster=cluster,
            profile=profile,
            config=config,
            trace=trace,
            slurm_db=SlurmDatabase(JobTable.from_records(()), [], window_seconds=window),
            pids={},
        )

    if workload_config is None:
        workload_config = WorkloadConfig(
            scale=config.scale,
            seed=config.seed,
            mmu_budget=injector.workload_mmu_budget(),
        )
    elif workload_config.mmu_budget == 0.0:
        workload_config = replace(
            workload_config, mmu_budget=injector.workload_mmu_budget()
        )
    with obs.span("datasets.workload"):
        specs = WorkloadModel(workload_config, window_days=profile.window_days).generate()

    # Two-pass generation: a schedule-free preview trace pins down the
    # offender GPUs (their episodes draw from dedicated RNG streams, so they
    # are identical across passes), the cordons derived from it shape the
    # final schedule, and the real trace is then placed against the *final*
    # schedule's occupancy — so idle-biased codes are idle with respect to
    # the very schedule the coupling uses.
    with obs.span("datasets.preview"):
        cordons = derive_cordons(injector.generate(cluster), config.seed)
    with obs.span("datasets.schedule", jobs=len(specs)):
        final = GpuScheduler(cluster, blackouts=cordons).schedule(specs, window)
    with obs.span("datasets.inject"):
        injector = FaultInjector(
            profile,
            InjectorConfig(
                scale=config.scale, seed=config.seed, workload_mmu_external=config.with_jobs
            ),
        )
        trace = injector.generate(cluster, occupancy=final.occupancy)
    with obs.span("datasets.couple"):
        coupler = FailureCoupler(profile, config.seed)
        coupling = coupler.couple(
            final, trace, specs, mmu_budget=injector.workload_mmu_budget()
        )

    slurm_db = SlurmDatabase(
        coupling.jobs, coupling.node_events, window_seconds=window
    )
    return DeltaDataset(
        cluster=cluster,
        profile=profile,
        config=config,
        trace=coupling.trace,
        slurm_db=slurm_db,
        pids=coupling.pids,
        truth=coupling,
        # Without the occupancy index injection and coupling read (13 MB at
        # scale 0.2); utilization() rebuilds it on demand.
        schedule=replace(final, _occupancy=None),
    )


def synthesize_h100(*, scale: float = 1.0, seed: int = 7) -> DeltaDataset:
    """Build the Hopper early-deployment (Section 6) dataset.

    H100 jobs run at ~20% utilization over a shorter window; the default
    scale of 1.0 is cheap because the Section-6 event population is small.
    """
    workload_config = WorkloadConfig(
        scale=scale,
        seed=seed,
        jobs_per_day=244.0,  # ~20% utilization of the 320-GPU partition
        partition_override="h100",
    )
    return synthesize_delta(
        scale=scale,
        seed=seed,
        profile=H100_CALIBRATION,
        workload_config=workload_config,
    )


# ---------------------------------------------------------------------------


def derive_cordons(trace: FaultTrace, seed: int) -> Dict[GpuKey, List[Interval]]:
    """Drain intervals for offender GPUs, derived from the fault trace.

    GPUs emitting dense error episodes get cordoned (no new job placements)
    for the episode span with probability :data:`CORDON_PROB` per episode —
    modelling SREs repeatedly draining a defective part without managing to
    replace it (the paper's 17-day uncontained case).
    """
    rng = spawn_rng(seed, "cordons")
    per_gpu_xid: Dict[Tuple[GpuKey, int], List[float]] = {}
    for event in trace.events:
        per_gpu_xid.setdefault((event.gpu_key, int(event.xid)), []).append(event.time)

    cordons: Dict[GpuKey, List[Interval]] = {}
    for (gpu, _xid), times in per_gpu_xid.items():
        if len(times) < CORDON_EVENT_THRESHOLD:
            continue
        times.sort()
        episode_start = times[0]
        last = times[0]
        episodes: List[Interval] = []
        for t in times[1:]:
            if t - last > CORDON_EPISODE_GAP:
                episodes.append((episode_start, last + 3600.0))
                episode_start = t
            last = t
        episodes.append((episode_start, last + 3600.0))
        kept = [ep for ep in episodes if rng.random() < CORDON_PROB]
        if kept:
            cordons.setdefault(gpu, []).extend(kept)
    for gpu in cordons:
        cordons[gpu].sort()
    return cordons
