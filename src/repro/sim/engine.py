"""The what-if engine: one training job versus the measured failure process.

A run places a distributed training job on a Delta-shaped inventory (via
the real :class:`~repro.slurm.scheduler.GpuScheduler`, so node packing and
partition routing match the substrate), samples the allocation's share of
the calibrated failure process, and advances a discrete-event loop until
the job's useful work completes:

* progress is *volatile* until a checkpoint write commits it;
* a fatal chain (or any inoperable GPU) interrupts the job: volatile
  progress becomes rework, and the recovery policy decides what the job
  waits for — restore only, node repair, a hot-spare swap, or an elastic
  restart on the surviving nodes;
* exponential arrivals are re-sampled whenever a policy mutates the
  allocation's rate (offender eviction, shrink/regrow) — exact, because
  the process is memoryless.

Everything stochastic draws from one caller-supplied generator, so a run
is a pure function of ``(config, rng stream)`` — the property the sweep
runner's worker-count-independence guarantee rests on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import List, Optional, Tuple

import numpy as np

from repro.cluster.gpu import GpuModel
from repro.cluster.inventory import DeltaShape, build_delta_cluster
from repro.faults.calibration import CalibrationProfile
from repro.sim.events import EventKind, EventQueue
from repro.sim.failures import AllocationFailureState, FailureDraw, FailureModel
from repro.sim.metrics import RunMetrics
from repro.sim.policies import RecoveryPolicy, resolve_interval
from repro.slurm.job import JobSpec
from repro.slurm.scheduler import PARTITIONS, GpuScheduler
from repro.util.rng import spawn_rng
from repro.util.validation import check_positive


@dataclass(frozen=True)
class TrainingJobConfig:
    """The job under study."""

    n_gpus: int = 256
    #: Ideal compute the job needs, in wall-hours at full allocation.
    useful_hours: float = 720.0
    partition: str = "a100"

    def __post_init__(self) -> None:
        check_positive("useful_hours", self.useful_hours)
        if self.n_gpus < 1:
            raise ValueError(f"n_gpus must be >= 1, got {self.n_gpus}")
        if self.partition not in PARTITIONS:
            raise ValueError(
                f"unknown partition {self.partition!r}; known: {sorted(PARTITIONS)}"
            )


#: Fixed costs of the recovery machinery (hours).
CHECKPOINT_COST_HOURS = 0.1
RESTORE_COST_HOURS = 0.25
#: Failure detection + rescheduling latency before recovery begins.
DETECTION_HOURS = 0.1
SPARE_SWAP_HOURS = 0.05
#: Abort incomplete runs at ``useful_hours * MAX_WALL_FACTOR`` (the
#: no-checkpoint baseline on a long job would otherwise never return).
MAX_WALL_FACTOR = 50.0


@dataclass(frozen=True)
class SimulationConfig:
    """Everything one replica needs (picklable: policies are plain data)."""

    profile: CalibrationProfile
    job: TrainingJobConfig
    policy: RecoveryPolicy


# ---------------------------------------------------------------------------
# Placement on the Delta inventory
# ---------------------------------------------------------------------------


@lru_cache(maxsize=32)
def _reference_population_gpus(hopper: bool) -> int:
    """GPU population the offender lottery normalizes by (848 / 320)."""
    cluster = build_delta_cluster()
    if hopper:
        return len(cluster.gpus_of_model(GpuModel.H100))
    return len(cluster.gpus_of_model(GpuModel.A40, GpuModel.A100))


@lru_cache(maxsize=32)
def allocate_job(n_gpus: int, partition: str) -> Tuple[int, ...]:
    """Per-node GPU counts of the job's allocation, via the real scheduler.

    The stock Delta shape is grown (whole nodes of the partition's primary
    kind) when a job outsizes the partition, so what-ifs can study fleets
    larger than the machine the paper measured.
    """
    shape = DeltaShape()
    per_node = {"a40": 4, "a100": 4, "h100": 4}[partition]
    pool = {
        "a40": shape.a40_x4_nodes * 4,
        "a100": shape.a100_x4_nodes * 4 + shape.a100_x8_nodes * 8,
        "h100": shape.gh200_nodes * 4,
    }[partition]
    deficit = n_gpus + 4 * per_node - pool  # headroom: a few spare nodes
    if deficit > 0:
        extra = math.ceil(deficit / per_node)
        if partition == "a40":
            shape = replace(shape, a40_x4_nodes=shape.a40_x4_nodes + extra)
        elif partition == "a100":
            shape = replace(shape, a100_x4_nodes=shape.a100_x4_nodes + extra)
        else:
            shape = replace(shape, gh200_nodes=shape.gh200_nodes + extra)
    cluster = build_delta_cluster(shape)
    spec = JobSpec(
        job_id=1,
        name="llm_pretrain",
        user="sim",
        submit_time=0.0,
        requested_gpus=n_gpus,
        duration=1.0,
        partition=partition,
        is_ml=True,
    )
    schedule = GpuScheduler(cluster).schedule([spec], window_seconds=1.0e9)
    record = schedule.jobs[0]
    if record.n_gpus < n_gpus:
        raise RuntimeError(
            f"could not place {n_gpus} GPUs on partition {partition!r}"
        )
    counts: dict = {}
    for node_id, _ in record.gpus:
        counts[node_id] = counts.get(node_id, 0) + 1
    return tuple(sorted(counts.values(), reverse=True))


# ---------------------------------------------------------------------------
# The engine
# ---------------------------------------------------------------------------

_RUN, _WRITE, _DOWN, _STALL = "run", "write", "down", "stall"


class WhatIfEngine:
    """Simulate one training run; ``run()`` returns its :class:`RunMetrics`."""

    def __init__(
        self,
        config: SimulationConfig,
        model: FailureModel,
        rng: np.random.Generator,
    ) -> None:
        if model.profile.name != config.profile.name:
            raise ValueError(
                f"failure model is for profile {model.profile.name!r}, "
                f"the run for {config.profile.name!r}"
            )
        self.config = config
        self.rng = rng
        self.model = model
        self.node_sizes: Tuple[int, ...] = allocate_job(
            config.job.n_gpus, config.job.partition
        )
        self.total_gpus = sum(self.node_sizes)
        hopper = "h100" in config.profile.name
        self.state: AllocationFailureState = self.model.allocation_state(
            n_nodes=len(self.node_sizes),
            n_gpus=self.total_gpus,
            population_gpus=_reference_population_gpus(hopper),
            rng=rng,
        )
        fatal_rate = self.state.fatal_rate()
        self.interval = resolve_interval(
            config.policy,
            checkpoint_cost_hours=CHECKPOINT_COST_HOURS,
            restore_cost_hours=RESTORE_COST_HOURS,
            mtbf_hours=(1.0 / fatal_rate) if fatal_rate > 0 else float("inf"),
        )

    # -- event loop ------------------------------------------------------

    def run(self) -> RunMetrics:
        cfg = self.config
        useful = cfg.job.useful_hours
        max_wall = useful * MAX_WALL_FACTOR + 100.0

        q = EventQueue()
        clock = 0.0
        durable = 0.0
        volatile = 0.0  # progress since the last durable commit (job-hours)
        pending_commit = 0.0
        phase = _STALL
        seg_start = 0.0
        rate = 1.0
        segment = 0
        fail_gen = 0
        resume_at = 0.0
        failure_started: Optional[float] = None
        spares_free = cfg.policy.n_spares
        active_gpus = self.total_gpus
        drained: List[int] = []  # sizes of elastically-removed nodes

        # Accumulators.
        ckpt_write = rework = restore_spent = repair_wait = 0.0
        gpu_hours = 0.0
        recoveries: List[float] = []
        n_root = n_interrupt = n_inoperable = n_ckpt = n_swaps = 0
        completed = False

        def segment_progress(t: float) -> float:
            return (t - seg_start) * rate if phase == _RUN else 0.0

        def unsafe_progress(t: float) -> float:
            """Progress that an interruption right now would destroy."""
            return volatile + pending_commit + segment_progress(t)

        def schedule_failure(t: float) -> None:
            gap = self.state.next_gap_hours(self.rng)
            if math.isfinite(gap):
                q.schedule(t + gap, EventKind.FAILURE, generation=fail_gen)

        def reschedule_failures(t: float) -> None:
            nonlocal fail_gen
            fail_gen += 1
            schedule_failure(t)

        def start_segment(t: float) -> None:
            nonlocal phase, seg_start, rate, segment
            rate = active_gpus / self.total_gpus
            if rate <= 0.0:
                phase = _STALL
                return
            phase = _RUN
            seg_start = t
            segment += 1
            remaining = useful - durable - volatile
            t_done = t + remaining / rate
            t_ckpt = t + self.interval
            if t_done <= t_ckpt:
                q.schedule(t_done, EventKind.JOB_COMPLETE, generation=segment)
            else:
                q.schedule(t_ckpt, EventKind.CHECKPOINT_WRITE, generation=segment)

        def begin_recovery(t: float, ready: float) -> None:
            nonlocal resume_at
            resume_at = max(resume_at, ready)
            q.schedule(resume_at, EventKind.RESTORE_DONE)

        def interrupt(t: float, draw: FailureDraw) -> None:
            """A running (or mid-write) job is taken down by ``draw``."""
            nonlocal phase, segment, volatile, pending_commit, rework
            nonlocal failure_started, n_interrupt
            n_interrupt += 1
            rework += unsafe_progress(t)
            volatile = 0.0
            pending_commit = 0.0
            segment += 1  # invalidate the segment's scheduled events
            phase = _DOWN
            failure_started = t
            ready = t + DETECTION_HOURS
            ready += handle_node_down(t, draw)
            ready += RESTORE_COST_HOURS
            begin_recovery(t, ready)

        def handle_node_down(t: float, draw: FailureDraw) -> float:
            """Policy-specific reaction to an inoperable GPU.

            Returns the extra delay (beyond detection/restore) the recovery
            must absorb.  Overlapping repairs are accounted at face value.
            """
            nonlocal spares_free, n_swaps, repair_wait, active_gpus, n_inoperable
            if not draw.inoperable:
                return 0.0
            n_inoperable += 1
            policy = cfg.policy
            if policy.elastic:
                if self.state.n_active_nodes > 0:
                    size = self.node_sizes[
                        int(self.rng.integers(0, len(self.node_sizes)))
                    ]
                    size = min(size, active_gpus)
                    drained.append(size)
                    active_gpus -= size
                    self.state.n_active_nodes -= 1
                    if draw.offender_index is not None:
                        self.state.suspend_offender(draw.offender_index)
                    q.schedule(
                        t + draw.repair_hours,
                        EventKind.DRAIN_END,
                        payload=draw.offender_index,
                    )
                    reschedule_failures(t)
                return 0.0
            if policy.n_spares > 0 and spares_free > 0:
                spares_free -= 1
                n_swaps += 1
                q.schedule(t + SPARE_SWAP_HOURS, EventKind.SPARE_SWAP)
                if draw.offender_index is not None:
                    # The defective part leaves the allocation with its node.
                    self.state.evict_offender(draw.offender_index)
                    reschedule_failures(t)
                q.schedule(t + draw.repair_hours, EventKind.DRAIN_END)
                return SPARE_SWAP_HOURS
            # No spare: the job blocks on the in-place repair.
            repair_wait += draw.repair_hours
            return draw.repair_hours

        schedule_failure(0.0)
        start_segment(0.0)

        while True:
            event = q.pop()
            if event is None:
                break  # nothing can happen anymore (e.g. stalled empty fleet)
            t = event.time
            if t > max_wall:
                clock = max_wall
                break
            gpu_hours += active_gpus * (t - clock)
            clock = t
            kind = event.kind

            if kind is EventKind.FAILURE:
                if event.generation != fail_gen:
                    continue
                draw = self.state.draw(self.rng)
                n_root += 1
                schedule_failure(t)
                if phase in (_RUN, _WRITE):
                    if draw.interrupts:
                        interrupt(t, draw)
                elif phase in (_DOWN, _STALL) and draw.inoperable:
                    # The outage compounds; recovery pushes out further.
                    extra = handle_node_down(t, draw)
                    if phase == _DOWN:
                        begin_recovery(
                            t,
                            t
                            + DETECTION_HOURS
                            + extra
                            + RESTORE_COST_HOURS,
                        )

            elif kind is EventKind.CHECKPOINT_WRITE:
                if event.generation != segment or phase != _RUN:
                    continue
                pending_commit = volatile + segment_progress(t)
                volatile = 0.0
                phase = _WRITE
                q.schedule(
                    t + CHECKPOINT_COST_HOURS,
                    EventKind.CHECKPOINT_DONE,
                    generation=segment,
                )

            elif kind is EventKind.CHECKPOINT_DONE:
                if event.generation != segment or phase != _WRITE:
                    continue
                durable += pending_commit
                pending_commit = 0.0
                ckpt_write += CHECKPOINT_COST_HOURS
                n_ckpt += 1
                start_segment(t)

            elif kind is EventKind.RESTORE_DONE:
                if phase != _DOWN:
                    continue
                if t < resume_at - 1e-12:
                    continue  # superseded; a later RESTORE_DONE is queued
                if active_gpus <= 0:
                    phase = _STALL  # every node is drained: wait for repairs
                    continue
                restore_spent += RESTORE_COST_HOURS
                if failure_started is not None:
                    recoveries.append(t - failure_started)
                    failure_started = None
                start_segment(t)

            elif kind is EventKind.DRAIN_END:
                if cfg.policy.elastic:
                    if drained:
                        size = drained.pop()
                        active_gpus += size
                        self.state.n_active_nodes += 1
                    if event.payload is not None:
                        self.state.resume_offender(event.payload)
                    reschedule_failures(t)
                    if phase == _RUN:
                        # Regrow: break the segment at the old rate, resume
                        # at the new one (in-memory progress survives).
                        volatile += segment_progress(t)
                        start_segment(t)
                    elif phase == _STALL:
                        phase = _DOWN
                        begin_recovery(t, t + RESTORE_COST_HOURS)
                elif cfg.policy.n_spares > 0:
                    spares_free += 1  # repaired node rejoins the spare pool

            elif kind is EventKind.SPARE_SWAP:
                continue  # bookkeeping only; delay is folded into recovery

            elif kind is EventKind.JOB_COMPLETE:
                if event.generation != segment or phase != _RUN:
                    continue
                durable += volatile + segment_progress(t)
                volatile = 0.0
                completed = True
                break

        downtime = math.fsum(recoveries)
        return RunMetrics(
            completed=completed,
            wall_hours=clock,
            useful_hours=durable,
            n_gpus=self.total_gpus,
            checkpoint_write_hours=ckpt_write,
            rework_hours=rework,
            restore_hours=restore_spent,
            repair_wait_hours=repair_wait,
            downtime_hours=downtime,
            gpu_hours_allocated=gpu_hours,
            n_root_events=n_root,
            n_interruptions=n_interrupt,
            n_inoperable=n_inoperable,
            n_checkpoints=n_ckpt,
            n_spare_swaps=n_swaps,
            offenders_drawn=len(self.state.offenders),
            offenders_evicted=self.state.offenders_evicted,
            ettr_hours=(downtime / len(recoveries)) if recoveries else 0.0,
        )


def simulate_training_run(
    config: SimulationConfig,
    model: FailureModel,
    *,
    seed: int = 7,
    replica: int = 0,
) -> RunMetrics:
    """One replica, on its own named stream of ``seed``.

    The stream path includes profile, policy, and replica index, so adding
    replicas (or running them on any worker) never perturbs existing ones.
    ``model`` is read-only, so one built for ``config.profile`` serves
    every replica of it.
    """
    rng = spawn_rng(seed, "sim", config.profile.name, config.policy.name, str(replica))
    return WhatIfEngine(config, model, rng).run()
