"""Workload generation shaped by the paper's Table 3.

Each size bucket carries the paper's job-count share, elapsed-time
statistics (mean / P50 / P99 in minutes) and ML share (derived from the
ML vs non-ML GPU-hour split).  Durations are log-normal bodies inverted from
(mean, P50) and clipped at the 48-hour walltime limit visible in the paper's
P99 column (2880 minutes).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.slurm.job import JobSpec, JobState
from repro.util.rng import RngStreams
from repro.util.stats import lognormal_from_mean_p50
from repro.util.validation import check_positive

#: Delta's 48-hour walltime cap, in seconds (Table 3's P99 pile-up at 2880 min).
WALLTIME_CAP = 2880.0 * 60.0


@dataclass(frozen=True)
class SizeBucket:
    """One row of Table 3."""

    label: str
    min_gpus: int
    max_gpus: int
    count_share: float  # fraction of all jobs
    mean_minutes: float
    p50_minutes: float
    p99_minutes: float
    ml_gpu_hours_k: float
    non_ml_gpu_hours_k: float
    #: Candidate GPU counts and weights within the bucket.
    sizes: Tuple[int, ...]
    size_weights: Tuple[float, ...]
    #: Fraction of the bucket's jobs that run to the 48-hour walltime cap
    #: (Table 3's multi-GPU buckets show P99 pinned at ~2880 minutes).
    walltime_mass: float = 0.0
    #: Duration cap in minutes (single-GPU jobs can exceed the standard
    #: walltime — the paper's bucket-1 P99 of 2483 with mean 175 implies a
    #: tail beyond 2880).
    cap_minutes: float = 2880.2

    @property
    def ml_share(self) -> float:
        total = self.ml_gpu_hours_k + self.non_ml_gpu_hours_k
        return self.ml_gpu_hours_k / total if total else 0.0


SIZE_BUCKETS: Tuple[SizeBucket, ...] = (
    SizeBucket("1", 1, 1, 0.6986, 175.62, 10.15, 2483.12, 241.6, 2724.0,
               (1,), (1.0,), walltime_mass=0.0, cap_minutes=50_000.0),
    SizeBucket("2-4", 2, 4, 0.2731, 145.04, 4.75, 2880.03, 344.6, 3108.7,
               (2, 3, 4), (0.50, 0.08, 0.42), walltime_mass=0.02),
    SizeBucket("4-8", 5, 8, 0.0155, 133.89, 2.70, 2880.20, 57.9, 338.6,
               (6, 8), (0.35, 0.65), walltime_mass=0.02),
    SizeBucket("8-32", 9, 32, 0.0107, 270.40, 73.73, 2880.17, 107.1, 1332.7,
               (12, 16, 24, 32), (0.35, 0.35, 0.15, 0.15), walltime_mass=0.02),
    SizeBucket("32-64", 33, 64, 0.0014, 204.52, 10.25, 2817.08, 161.9, 226.4,
               (40, 48, 64), (0.4, 0.3, 0.3), walltime_mass=0.045),
    SizeBucket("64-128", 65, 128, 0.00063, 226.28, 0.32, 2211.94, 25.1, 322.3,
               (96, 128), (0.5, 0.5), walltime_mass=0.065),
    SizeBucket("128-256", 129, 256, 0.00006, 226.53, 9.19, 2785.29, 0.0, 52.4,
               (160, 256), (0.5, 0.5), walltime_mass=0.07),
    SizeBucket("256+", 257, 400, 0.00002, 32.12, 20.40, 120.14, 0.0, 4.5,
               (288, 320), (0.6, 0.4)),
)

#: The paper's job population and background (non-GPU) failure rate.
PAPER_GPU_JOB_COUNT = 1_445_119
PAPER_GPU_JOB_SUCCESS_RATE = 0.7468
PAPER_WINDOW_DAYS = 855.0
BACKGROUND_FAILURE_PROB = 1.0 - PAPER_GPU_JOB_SUCCESS_RATE
#: Probability a <=4-GPU job targets the A40 partition (larger jobs
#: always request A100s).
SMALL_JOB_A40_PROB = 0.50
#: Fraction of jobs in long-haul queues exceeding the standard walltime
#: (the paper's Figure 9a/9b show jobs beyond 4,000 minutes that
#: encounter multiple MMU errors yet complete), and their length range.
LONG_JOB_PROB = 0.001
LONG_JOB_MINUTES: Tuple[float, float] = (4_000.0, 20_000.0)
#: User-induced XID 13 and XID 43 emissions per 1000 jobs.
XID13_PER_KJOB = 20.0
XID43_PER_KJOB = 5.0

_ML_NAMES = (
    "train_resnet50", "llm_finetune", "bert_pretrain", "model_eval",
    "torch_ddp_train", "gpt_inference", "train_gnn", "diffusion_train",
)
_NON_ML_NAMES = (
    "namd_run", "wrf_forecast", "vasp_relax", "gromacs_md", "lammps_sim",
    "jupyter", "matlab_batch", "openfoam_case", "bash", "quantum_espresso",
)


@dataclass(frozen=True)
class WorkloadConfig:
    """Workload knobs.

    ``scale`` shrinks the window and job count together (consistent with the
    injector's window scaling).  ``mmu_budget`` is the number of MMU errors
    buggy jobs should emit in total — supplied by the datasets layer from
    :meth:`repro.faults.injector.FaultInjector.workload_mmu_budget`.
    """

    scale: float = 1.0
    seed: int = 7
    jobs_per_day: float = PAPER_GPU_JOB_COUNT / PAPER_WINDOW_DAYS
    #: Route every job to one partition (the H100 dataset uses "h100").
    partition_override: str | None = None
    mmu_budget: float = 0.0

    def __post_init__(self) -> None:
        check_positive("scale", self.scale)


class WorkloadModel:
    """Draws a submission stream of :class:`JobSpec` shaped like Table 3."""

    def __init__(self, config: WorkloadConfig | None = None, *,
                 window_days: float = PAPER_WINDOW_DAYS) -> None:
        self.config = config or WorkloadConfig()
        self.window_days = window_days
        self.window_seconds = window_days * 86400.0 * self.config.scale
        self._streams = RngStreams(self.config.seed).fork("workload")

    @property
    def expected_job_count(self) -> int:
        return int(round(self.config.jobs_per_day * self.window_days * self.config.scale))

    def generate(self) -> List[JobSpec]:
        """Generate the full submission stream, ordered by submit time."""
        rng = self._streams.get("jobs")
        n = self.expected_job_count
        if n == 0:
            return []

        bucket_probs = np.array([b.count_share for b in SIZE_BUCKETS])
        bucket_probs = bucket_probs / bucket_probs.sum()
        bucket_idx = rng.choice(len(SIZE_BUCKETS), size=n, p=bucket_probs)

        submit = np.sort(rng.uniform(0.0, self.window_seconds, size=n))

        durations = np.empty(n)
        n_gpus = np.empty(n, dtype=int)
        is_ml = np.zeros(n, dtype=bool)
        for b_index, bucket in enumerate(SIZE_BUCKETS):
            mask = bucket_idx == b_index
            count = int(mask.sum())
            if count == 0:
                continue
            params = lognormal_from_mean_p50(
                bucket.mean_minutes * 60.0, bucket.p50_minutes * 60.0
            )
            drawn = np.clip(params.sample(rng, count), 10.0, bucket.cap_minutes * 60.0)
            if bucket.walltime_mass > 0:
                at_cap = rng.random(count) < bucket.walltime_mass
                drawn[at_cap] = WALLTIME_CAP
            durations[mask] = drawn
            weights = np.array(bucket.size_weights) / sum(bucket.size_weights)
            n_gpus[mask] = rng.choice(bucket.sizes, size=count, p=weights)
            is_ml[mask] = rng.random(count) < bucket.ml_share

        # Long-haul queue: a small fraction of single-GPU jobs exceed the
        # standard walltime by special allocation (log-uniform 4k-40k min),
        # populating the >4,000-minute region of Figures 9a/9b.
        long_mask = rng.random(n) < LONG_JOB_PROB
        n_long = int(long_mask.sum())
        if n_long:
            lo, hi = LONG_JOB_MINUTES
            draw = rng.uniform(math.log(lo * 60.0), math.log(hi * 60.0), size=n_long)
            durations[long_mask] = np.exp(draw)
            n_gpus[long_mask] = 1

        if self.config.partition_override is not None:
            partitions = np.full(n, self.config.partition_override, dtype=object)
        else:
            partitions = np.where(
                n_gpus > 4,
                "a100",
                np.where(rng.random(n) < SMALL_JOB_A40_PROB, "a40", "a100"),
            )

        natural_fail = rng.random(n) < BACKGROUND_FAILURE_PROB
        fail_kind = rng.random(n)

        mmu_emissions = self._assign_mmu_emissions(rng, durations, n)
        xid13 = rng.random(n) < XID13_PER_KJOB / 1000.0
        xid43 = rng.random(n) < XID43_PER_KJOB / 1000.0

        ml_pick = rng.integers(0, len(_ML_NAMES), size=n)
        nml_pick = rng.integers(0, len(_NON_ML_NAMES), size=n)
        users = rng.integers(1, 900, size=n)

        jobs: List[JobSpec] = []
        for i in range(n):
            if natural_fail[i]:
                if fail_kind[i] < 0.70:
                    state, code = JobState.FAILED, 1
                elif fail_kind[i] < 0.85:
                    state, code = JobState.TIMEOUT, 0
                elif fail_kind[i] < 0.95:
                    state, code = JobState.OUT_OF_MEMORY, 137
                else:
                    state, code = JobState.CANCELLED, 0
            else:
                state, code = JobState.COMPLETED, 0
            name = (
                _ML_NAMES[ml_pick[i]] if is_ml[i] else _NON_ML_NAMES[nml_pick[i]]
            )
            jobs.append(
                JobSpec(
                    job_id=i + 1,
                    name=name,
                    user=f"u{users[i]:03d}",
                    submit_time=float(submit[i]),
                    requested_gpus=int(n_gpus[i]),
                    duration=float(durations[i]),
                    partition=str(partitions[i]),
                    is_ml=bool(is_ml[i]),
                    natural_state=state,
                    natural_exit_code=code,
                    mmu_emissions=int(mmu_emissions[i]),
                    xid13_emissions=int(xid13[i]),
                    xid43_emissions=int(xid43[i]),
                )
            )
        return jobs

    def _assign_mmu_emissions(
        self, rng: np.random.Generator, durations: np.ndarray, n: int
    ) -> np.ndarray:
        """Distribute the MMU budget over a subset of "buggy" jobs.

        Buggy jobs emit 1+ MMU errors each; the per-job count grows with
        runtime so long jobs accumulate many errors (the paper's Figure 9b:
        >4,000-minute jobs encounter multiple MMU errors yet complete).
        """
        emissions = np.zeros(n, dtype=int)
        budget = self.config.mmu_budget
        if budget <= 0 or n == 0:
            return emissions
        mean_per_job = 2.0
        n_buggy = min(n, max(1, int(round(budget / mean_per_job))))
        # Buggy code strikes uniformly across jobs; long-running jobs still
        # accumulate more errors through the per-hour emission rate below
        # (Figure 9b's multi-error completers).
        buggy = rng.choice(n, size=n_buggy, replace=False)
        per_hour = 0.25
        counts = 1 + np.minimum(
            rng.poisson(per_hour * durations[buggy] / 3600.0), 60
        )
        # Trim/scale to land on the budget in expectation.
        total = counts.sum()
        if total > 0:
            factor = budget / total
            counts = np.maximum(1, np.round(counts * factor).astype(int))
        emissions[buggy] = counts
        return emissions


def classify_ml(name: str) -> bool:
    """The paper's heuristic: ML-ness inferred from the job submission name."""
    keywords = ("model", "train", "bert", "gpt", "llm", "torch", "resnet",
                "diffusion", "gnn", "inference", "finetune", "pretrain")
    lowered = name.lower()
    return any(key in lowered for key in keywords)
