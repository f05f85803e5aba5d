"""Calibration constants: the paper's published statistics as generative models.

Every number here is lifted from the paper (Table 1, Table 2, Figures 5-7,
Sections 4-6) and drives the *generative* side of the reproduction.  The
analysis pipeline re-estimates all of these quantities from rendered syslog
text without access to this module's constants for any given dataset, so the
EXPERIMENTS.md paper-vs-measured comparison is meaningful.

Layout:

* :class:`PersistenceModel` — per-XID duplicate-burst duration model,
  inverted from Table 1's (mean, P50) via a log-normal body plus an optional
  heavy log-uniform tail (needed for XID 95, whose mean of 860 s far exceeds
  its P95 of 341 s — the 17-day uncontained saga).
* :class:`OffenderSkew` — defective-GPU concentration (Section 4.2 (iii):
  >90 % of uncontained errors from a few GPUs, one GPU at 99 %).
* :class:`Transition` / kernel rows — the Markov propagation kernel behind
  Figures 5-7.  Root rates are *solved* from the kernel and Table 1's totals
  (``solve_root_counts``), so generated totals match the paper in
  expectation while measured conditional propagation probabilities match the
  figures.
* :class:`CalibrationProfile` — one bundle per GPU population: Ampere
  (Table 1) and Hopper (Section 6).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Dict, Mapping, NamedTuple, Optional, Tuple

import numpy as np

from repro.faults.xid import Xid
from repro.results.artifact import PaperExpectation, Tolerance
from repro.util.stats import LognormalParams, lognormal_from_mean_p50
from repro.util.validation import check_positive, check_probability

# ---------------------------------------------------------------------------
# Persistence (duplicate-burst duration) models
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PersistenceModel:
    """Samplable model of an error's duplicate-line burst duration (seconds).

    ``body`` covers the bulk of the distribution; with probability
    ``tail_prob`` a duration is instead drawn log-uniformly from
    ``tail_range`` (used for heavy-tailed codes).  Durations are clipped to
    the pipeline's one-day persistence cut-off so the generator cannot emit
    bursts the analyzer is not designed to measure.
    """

    body: LognormalParams
    tail_prob: float = 0.0
    tail_range: Tuple[float, float] = (600.0, 86400.0)
    max_duration: float = 86400.0

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        durations = self.body.sample(rng, size)
        if self.tail_prob > 0.0:
            in_tail = rng.random(size) < self.tail_prob
            n_tail = int(in_tail.sum())
            if n_tail:
                low, high = self.tail_range
                log_draw = rng.uniform(math.log(low), math.log(high), size=n_tail)
                durations[in_tail] = np.exp(log_draw)
        return np.clip(durations, 0.0, self.max_duration)

    @property
    def mean(self) -> float:
        low, high = self.tail_range
        tail_mean = (high - low) / math.log(high / low) if high > low else low
        return (1.0 - self.tail_prob) * self.body.mean + self.tail_prob * tail_mean


def _persistence(mean: float, p50: float, tail_prob: float = 0.0,
                 tail_range: Tuple[float, float] = (600.0, 86400.0)) -> PersistenceModel:
    return PersistenceModel(
        body=lognormal_from_mean_p50(mean, p50),
        tail_prob=tail_prob,
        tail_range=tail_range,
    )


# ---------------------------------------------------------------------------
# Offender skew (defective-GPU concentration)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OffenderSkew:
    """Concentration of a code's events on a few defective GPUs.

    ``offender_share`` of events land on ``n_offenders`` designated GPUs and
    ``top_share`` of *those* land on the single worst GPU; the remainder is
    spread uniformly.  ``testing_phase_days``/``testing_phase_share``
    concentrate offender events early in the window (Section 4.2 (iii): the
    overwhelming majority of uncontained/DBE/RRF errors occurred during the
    system testing phase).
    """

    n_offenders: int
    offender_share: float
    top_share: float = 0.0
    testing_phase_days: float = 0.0
    testing_phase_share: float = 0.0

    def __post_init__(self) -> None:
        check_probability("offender_share", self.offender_share)
        check_probability("top_share", self.top_share)
        check_probability("testing_phase_share", self.testing_phase_share)
        if self.n_offenders < 1:
            raise ValueError("n_offenders must be >= 1 when skew is present")


# ---------------------------------------------------------------------------
# Propagation kernel
# ---------------------------------------------------------------------------


class Scope(enum.Enum):
    """Where a chained follow-up event lands."""

    SAME_GPU = "same_gpu"
    PEER_GPU = "peer_gpu"  # an NVLink peer on the same node


@dataclass(frozen=True)
class DelayModel:
    """Propagation-time distribution between consecutive chain events.

    Uniform on ``(low, high)`` seconds.  Same-XID repeats must keep
    ``low`` above the coalescing window (5 s), otherwise the follow-up would
    be merged into its predecessor's burst and become unobservable.
    """

    low: float
    high: float

    def sample(self, rng: np.random.Generator) -> float:
        return float(rng.uniform(self.low, self.high))

    @property
    def mean(self) -> float:
        return (self.low + self.high) / 2.0


@dataclass(frozen=True)
class Transition:
    """One outgoing edge of the propagation kernel."""

    target: Xid
    prob: float
    delay: DelayModel
    scope: Scope = Scope.SAME_GPU

    def __post_init__(self) -> None:
        check_probability("prob", self.prob)


@dataclass(frozen=True)
class KernelRow:
    """Outgoing behaviour of one XID: chained transitions plus terminal fate.

    Probability mass not covered by ``transitions`` is terminal; of the
    terminal mass, ``inoperable_prob`` (a probability over *all* outcomes of
    the event) marks the GPU as left in an error state requiring a reset.
    """

    xid: Xid
    transitions: Tuple[Transition, ...] = ()
    inoperable_prob: float = 0.0

    def __post_init__(self) -> None:
        total = sum(t.prob for t in self.transitions)
        if total > 1.0 + 1e-9:
            raise ValueError(f"kernel row for {self.xid!r} has transition mass {total} > 1")
        check_probability("inoperable_prob", self.inoperable_prob)

    @property
    def terminal_prob(self) -> float:
        return 1.0 - sum(t.prob for t in self.transitions)


def solve_root_counts(
    totals: Mapping[Xid, float], kernel: Mapping[Xid, KernelRow]
) -> Dict[Xid, float]:
    """Solve for root (spontaneous) event counts given target totals.

    With recursive chaining, expected totals satisfy ``N = R + N.Q`` where
    ``Q[i][j]`` is the probability an event of XID ``i`` chains to XID ``j``;
    hence ``R = N (I - Q)``.  A negative solution means the kernel alone
    already over-produces some code; we clip to zero and let the surplus
    stand (it is reported by :func:`expected_totals` for verification).
    """
    roots: Dict[Xid, float] = dict(totals)
    for source, row in kernel.items():
        n_source = totals.get(source, 0.0)
        if n_source <= 0:
            continue
        for transition in row.transitions:
            if transition.target in roots:
                roots[transition.target] -= n_source * transition.prob
    return {xid: max(0.0, count) for xid, count in roots.items()}


def expected_totals(
    roots: Mapping[Xid, float], kernel: Mapping[Xid, KernelRow], iterations: int = 64
) -> Dict[Xid, float]:
    """Fixed-point expected totals ``N = R + N.Q`` (for calibration checks)."""
    totals = dict(roots)
    for _ in range(iterations):
        nxt = dict(roots)
        for source, row in kernel.items():
            n_source = totals.get(source, 0.0)
            for transition in row.transitions:
                nxt[transition.target] = (
                    nxt.get(transition.target, 0.0) + n_source * transition.prob
                )
        if all(abs(nxt[k] - totals.get(k, 0.0)) < 1e-9 for k in nxt):
            totals = nxt
            break
        totals = nxt
    return totals


# ---------------------------------------------------------------------------
# Per-XID calibration bundle
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class XidCalibration:
    """Generative + reference constants for one XID code."""

    xid: Xid
    #: Target coalesced-event count over the profile's full window/population.
    count: int
    persistence: PersistenceModel
    #: Paper's Table 1 reference values (seconds / node-hours), for reports.
    paper_mtbe_all_nodes_hours: float
    paper_mtbe_per_node_hours: float
    paper_persistence_mean: float
    paper_persistence_p50: float
    paper_persistence_p95: float
    #: Table 2: probability a job that encounters this code fails.
    job_failure_prob: float = 1.0
    #: Probability a root event is placed on a (GPU, time) with an active job.
    busy_bias: float = 0.0
    offenders: Optional[OffenderSkew] = None
    #: Root events arrive in episodes (offender GPUs): minimum inter-event
    #: gap (seconds) between consecutive same-GPU events, enforced so that
    #: distinct coalesced errors never merge.
    min_gap: float = 8.0

    def __post_init__(self) -> None:
        check_probability("job_failure_prob", self.job_failure_prob)
        check_probability("busy_bias", self.busy_bias)
        if self.count < 0:
            raise ValueError("count must be non-negative")


# ---------------------------------------------------------------------------
# Profiles
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RepairModelParams:
    """Node repair-duration mixture (drives Figure 9c and availability).

    Mean ≈ 0.3 h (paper Section 5.4: expected time to service a failed node)
    with a heavy tail reaching the 23-48 h drain-plus-reboot cases the paper
    narrates (Figure 1, Section 4.3).
    """

    fast_prob: float = 0.97
    fast_mean_hours: float = 0.21
    slow_median_hours: float = 1.5
    slow_sigma: float = 1.1
    max_hours: float = 48.0
    #: Window for merging inoperable/error events on one node into a single
    #: repair incident (seconds).
    incident_merge_window: float = 3600.0

    def sample_hours(self, rng: np.random.Generator, size: int) -> np.ndarray:
        fast = rng.exponential(self.fast_mean_hours, size=size)
        slow = rng.lognormal(math.log(self.slow_median_hours), self.slow_sigma, size=size)
        pick_fast = rng.random(size) < self.fast_prob
        return np.clip(np.where(pick_fast, fast, slow), 0.01, self.max_hours)

    @property
    def mean_hours(self) -> float:
        slow_mean = self.slow_median_hours * math.exp(self.slow_sigma**2 / 2.0)
        return self.fast_prob * self.fast_mean_hours + (1 - self.fast_prob) * slow_mean


@dataclass(frozen=True)
class CalibrationProfile:
    """Everything the injector needs for one GPU population."""

    name: str
    window_days: float
    #: Number of GPU nodes the per-node MTBE normalizes by (Table 1: 206).
    reference_node_count: int
    xids: Mapping[Xid, XidCalibration]
    kernel: Mapping[Xid, KernelRow]
    repair: RepairModelParams = field(default_factory=RepairModelParams)
    #: Whole-switch NVLink faults on 8-way nodes: incidents in which every
    #: GPU behind the NVSwitch logs an NVLink error near-simultaneously
    #: (source of the paper's "35 NVLink errors affected all eight GPUs").
    nvlink_switch_fault_incidents: int = 4
    #: Root-level NVLink incident fanout: probability that a link fault's
    #: root involves 2 / 4 GPUs at once (remaining mass: single GPU).
    #: Calibrated so ~16% of NVLink errors sit in multi-GPU incidents and
    #: ~5% in 4+-GPU incidents (paper Section 4.4.2).
    nvlink_fanout: Tuple[Tuple[int, float], ...] = ((2, 0.09), (4, 0.018))
    #: Fraction of the MMU root budget emitted by buggy user jobs through
    #: the workload substrate instead of the hardware injector (Section 5.3:
    #: MMU errors largely arise from illegal accesses by user code).
    mmu_from_workload_fraction: float = 0.65

    @property
    def window_seconds(self) -> float:
        return self.window_days * 86400.0

    @property
    def window_node_hours(self) -> float:
        return self.window_days * 24.0 * self.reference_node_count

    def window_hours(self, scale: float) -> float:
        """A ``scale`` study's observation window in hours.

        Every study computes its window here (in memory, from a dataset
        directory or from a store), so all of them report one number.
        """
        return self.window_days * 24.0 * scale

    def total_count(self) -> int:
        return sum(c.count for c in self.xids.values())

    def mtbe_all_nodes_hours(self, xid: Xid) -> float:
        return self.window_days * 24.0 / self.xids[xid].count

    def scaled_counts(self, scale: float) -> Dict[Xid, float]:
        check_positive("scale", scale)
        return {xid: cal.count * scale for xid, cal in self.xids.items()}


# ---------------------------------------------------------------------------
# The Ampere (Table 1) profile
# ---------------------------------------------------------------------------

_DELAY_FAST = DelayModel(0.5, 4.0)  # cross-XID propagation within a burst
_DELAY_REPEAT = DelayModel(7.0, 45.0)  # same-XID recurrence (beyond coalescing)

AMPERE_KERNEL: Dict[Xid, KernelRow] = {
    # Figure 5: GSP errors are overwhelmingly isolated & fatal to the GPU;
    # 0.01 recur, 0.01 (21 cases) spill into PMU SPI errors.
    Xid.GSP: KernelRow(
        Xid.GSP,
        transitions=(
            Transition(Xid.GSP, 0.01, _DELAY_REPEAT),
            Transition(Xid.PMU_SPI, 0.01, DelayModel(1.0, 8.0)),
        ),
        inoperable_prob=0.98,
    ),
    # Figure 5: PMU SPI errors cause MMU errors with probability 0.82 and
    # recur with probability 0.18.
    Xid.PMU_SPI: KernelRow(
        Xid.PMU_SPI,
        transitions=(
            Transition(Xid.MMU, 0.82, DelayModel(0.5, 3.5)),
            Transition(Xid.PMU_SPI, 0.18, _DELAY_REPEAT),
        ),
    ),
    # Figure 6: NVLink errors recur on the same GPU (0.66) or leave it in an
    # error state (0.20).  Inter-GPU spread is generated at the *root* of an
    # incident (a shared link/switch fault makes both end-points log within
    # seconds — see ``CalibrationProfile.nvlink_fanout``), which is what
    # keeps the per-event inter-GPU propagation at the paper's 0.14 while
    # only ~14-16% of errors belong to multi-GPU incidents.
    Xid.NVLINK: KernelRow(
        Xid.NVLINK,
        # Tighter recurrence spacing than other codes: incident chains on
        # the GPUs sharing a faulty link interleave within the propagation
        # window, which is what the inter-GPU edge measurement picks up.
        transitions=(Transition(Xid.NVLINK, 0.66, DelayModel(7.0, 25.0)),),
        inoperable_prob=0.20,
    ),
    # Figure 7: a DBE triggers row remapping; success logs an RRE (0.5),
    # failure logs an RRF (~0.5 minus the one DBE observed with no successor).
    Xid.DBE: KernelRow(
        Xid.DBE,
        transitions=(
            Transition(Xid.RRE, 0.50, _DELAY_FAST),
            Transition(Xid.RRF, 0.47, _DELAY_FAST),
        ),
    ),
    # Figure 7: after an RRF, containment succeeds 0.43 (Contained ECC),
    # fails into an uncontained error 0.11, or is not triggered at all
    # (0.46), leaving the GPU inoperable.
    Xid.RRF: KernelRow(
        Xid.RRF,
        transitions=(
            Transition(Xid.CONTAINED, 0.43, _DELAY_FAST),
            Transition(Xid.UNCONTAINED, 0.11, _DELAY_FAST),
        ),
        inoperable_prob=0.46,
    ),
    # Uncontained errors render the GPU inoperable until an SRE reset
    # (Section 4.4.3) but have no *chained* successors in Figure 7: the
    # offender's bursty recurrences are generated as episodes, not chains.
    Xid.UNCONTAINED: KernelRow(Xid.UNCONTAINED, inoperable_prob=1.0),
    Xid.FALLEN_OFF_BUS: KernelRow(Xid.FALLEN_OFF_BUS, inoperable_prob=1.0),
    Xid.MMU: KernelRow(Xid.MMU),
    Xid.RRE: KernelRow(Xid.RRE),
    Xid.CONTAINED: KernelRow(Xid.CONTAINED),
}


def _ampere_xids() -> Dict[Xid, XidCalibration]:
    """Table 1, row by row."""
    rows = {
        Xid.MMU: XidCalibration(
            xid=Xid.MMU,
            count=18_876,
            # Tight body at ~2.8 s plus a 5% tail to 5-10 s reproduces the
            # (2.85, 2.80, 5.80) mean/P50/P95 triple.
            persistence=_persistence(mean=2.72, p50=2.80, tail_prob=0.07,
                                     tail_range=(4.5, 8.0)),
            paper_mtbe_all_nodes_hours=1.09,
            paper_mtbe_per_node_hours=223.94,
            paper_persistence_mean=2.85,
            paper_persistence_p50=2.80,
            paper_persistence_p95=5.80,
            job_failure_prob=0.5867,
            busy_bias=0.0,  # job-correlated MMU errors come from the workload side
            # A few defective parts also emit MMU errors at volume; their
            # removal is part of Section 5.5's 3x counterfactual gain.
            # The share applies to the injector's hardware portion of the
            # MMU budget (~35% of the code's total).
            offenders=OffenderSkew(n_offenders=4, offender_share=0.35, top_share=0.5),
        ),
        Xid.DBE: XidCalibration(
            xid=Xid.DBE,
            count=32,
            persistence=_persistence(mean=0.14, p50=0.12),
            paper_mtbe_all_nodes_hours=641.25,
            paper_mtbe_per_node_hours=132_097.5,
            paper_persistence_mean=0.14,
            paper_persistence_p50=0.12,
            paper_persistence_p95=0.24,
            job_failure_prob=0.90,
            busy_bias=0.30,
            offenders=OffenderSkew(
                n_offenders=6, offender_share=0.9, top_share=0.4,
                testing_phase_days=90.0, testing_phase_share=0.85,
            ),
        ),
        Xid.RRE: XidCalibration(
            xid=Xid.RRE,
            count=95,
            persistence=_persistence(mean=0.12, p50=0.12),
            paper_mtbe_all_nodes_hours=216.0,
            paper_mtbe_per_node_hours=44_496.0,
            paper_persistence_mean=0.12,
            paper_persistence_p50=0.12,
            paper_persistence_p95=0.12,
            job_failure_prob=0.50,
            busy_bias=0.02,
        ),
        Xid.RRF: XidCalibration(
            xid=Xid.RRF,
            count=35,
            persistence=_persistence(mean=8.88, p50=2.90),
            paper_mtbe_all_nodes_hours=586.29,
            paper_mtbe_per_node_hours=120_774.9,
            paper_persistence_mean=8.88,
            paper_persistence_p50=2.90,
            paper_persistence_p95=26.65,
            job_failure_prob=1.0,
            busy_bias=0.23,
            offenders=OffenderSkew(
                n_offenders=4, offender_share=0.9, top_share=0.5,
                testing_phase_days=90.0, testing_phase_share=0.85,
            ),
        ),
        Xid.NVLINK: XidCalibration(
            xid=Xid.NVLINK,
            count=2_987,
            persistence=_persistence(mean=0.38, p50=0.24, tail_prob=0.03,
                                     tail_range=(5.0, 30.0)),
            paper_mtbe_all_nodes_hours=6.87,
            paper_mtbe_per_node_hours=1_415.2,
            paper_persistence_mean=0.76,
            paper_persistence_p50=0.24,
            paper_persistence_p95=1.18,
            job_failure_prob=0.6571,
            busy_bias=0.005,
        ),
        Xid.FALLEN_OFF_BUS: XidCalibration(
            xid=Xid.FALLEN_OFF_BUS,
            count=31,
            persistence=_persistence(mean=2.71, p50=0.25),
            paper_mtbe_all_nodes_hours=661.94,
            paper_mtbe_per_node_hours=136_358.6,
            paper_persistence_mean=2.71,
            paper_persistence_p50=0.25,
            paper_persistence_p95=12.03,
            job_failure_prob=1.0,
            busy_bias=0.0,
        ),
        Xid.CONTAINED: XidCalibration(
            xid=Xid.CONTAINED,
            count=28,
            persistence=_persistence(mean=0.12, p50=0.12),
            paper_mtbe_all_nodes_hours=732.86,
            paper_mtbe_per_node_hours=150_968.6,
            paper_persistence_mean=0.12,
            paper_persistence_p50=0.12,
            paper_persistence_p95=0.14,
            job_failure_prob=1.0,
            busy_bias=0.10,
        ),
        Xid.UNCONTAINED: XidCalibration(
            xid=Xid.UNCONTAINED,
            count=38_905,
            # Body median 75 s (Table 1's P50) plus a ~5% log-uniform tail up
            # to the one-day cut-off: reproduces the mean of ~860 s despite a
            # P95 of only ~341 s (the 17-day saga lives in the tail).
            # Narrow body around the 75 s median plus a 5% log-uniform tail:
            # the mixture reproduces the paradoxical Table-1 triple where the
            # mean (860 s) exceeds the P95 (341 s).
            persistence=_persistence(
                mean=89.5, p50=75.22, tail_prob=0.045, tail_range=(600.0, 86_000.0)
            ),
            paper_mtbe_all_nodes_hours=0.53,
            paper_mtbe_per_node_hours=108.69,
            paper_persistence_mean=860.24,
            paper_persistence_p50=75.22,
            paper_persistence_p95=340.69,
            job_failure_prob=0.9716,
            busy_bias=0.01,
            # Section 4.4.3: only 4 GPUs ever saw uncontained errors, one of
            # them contributing 99% — all spontaneous uncontained errors are
            # offender-generated (the rare non-offender instances arise via
            # the RRF containment-failure chain).
            offenders=OffenderSkew(n_offenders=4, offender_share=1.0, top_share=0.99),
            min_gap=30.0,
        ),
        Xid.GSP: XidCalibration(
            xid=Xid.GSP,
            count=2_136,
            # Most GSP bursts are a single line pair (P50 of 0.03 s); ~6% are
            # long stuck-GSP bursts, which carry the 12 s mean and ~100 s P95.
            persistence=_persistence(mean=0.05, p50=0.03, tail_prob=0.065,
                                     tail_range=(60.0, 450.0)),
            paper_mtbe_all_nodes_hours=9.61,
            paper_mtbe_per_node_hours=1_979.0,
            paper_persistence_mean=12.14,
            paper_persistence_p50=0.03,
            paper_persistence_p95=100.85,
            job_failure_prob=1.0,
            busy_bias=0.015,
        ),
        Xid.PMU_SPI: XidCalibration(
            xid=Xid.PMU_SPI,
            count=128,
            persistence=_persistence(mean=0.05, p50=0.06),
            paper_mtbe_all_nodes_hours=160.31,
            paper_mtbe_per_node_hours=33_024.4,
            paper_persistence_mean=0.05,
            paper_persistence_p50=0.06,
            paper_persistence_p95=0.08,
            job_failure_prob=0.9661,
            busy_bias=0.45,
        ),
    }
    return rows


AMPERE_CALIBRATION = CalibrationProfile(
    name="delta-ampere",
    window_days=855.0,
    reference_node_count=206,
    xids=_ampere_xids(),
    kernel=AMPERE_KERNEL,
)


# ---------------------------------------------------------------------------
# The Hopper (Section 6) profile
# ---------------------------------------------------------------------------

H100_KERNEL: Dict[Xid, KernelRow] = {
    # Section 6: H100 DBEs were followed by RRFs, not RREs — "which is
    # unusual, as it typically indicates exhausted remappable rows".
    Xid.DBE: KernelRow(
        Xid.DBE,
        transitions=(Transition(Xid.RRF, 0.50, _DELAY_FAST),),
    ),
    Xid.RRF: KernelRow(Xid.RRF, inoperable_prob=0.5),
    Xid.MMU: KernelRow(Xid.MMU),
    Xid.CONTAINED: KernelRow(Xid.CONTAINED),
    Xid.XID_136: KernelRow(Xid.XID_136),
}


def _h100_xids() -> Dict[Xid, XidCalibration]:
    """Section 6 event counts over the H100 early-deployment window."""

    def row(xid: Xid, count: int, mean: float, p50: float, busy: float = 0.05,
            fail: float = 1.0) -> XidCalibration:
        return XidCalibration(
            xid=xid,
            count=count,
            persistence=_persistence(mean=mean, p50=p50),
            paper_mtbe_all_nodes_hours=float("nan"),
            paper_mtbe_per_node_hours=float("nan"),
            paper_persistence_mean=mean,
            paper_persistence_p50=p50,
            paper_persistence_p95=float("nan"),
            job_failure_prob=fail,
            busy_bias=busy,
        )

    return {
        Xid.MMU: row(Xid.MMU, 18, 2.85, 2.80, busy=0.3, fail=0.59),
        Xid.DBE: row(Xid.DBE, 10, 0.14, 0.12, fail=0.9),
        Xid.RRF: row(Xid.RRF, 5, 8.88, 2.90),
        Xid.CONTAINED: row(Xid.CONTAINED, 9, 0.12, 0.12),
        Xid.XID_136: row(Xid.XID_136, 70, 1.0, 0.5, busy=0.02, fail=0.5),
    }


#: 80 GH200 nodes observed for 240 days: 112 events over 460,800 node-hours
#: gives the paper's 4,114-hour MTBE.
H100_CALIBRATION = CalibrationProfile(
    name="delta-h100",
    window_days=240.0,
    reference_node_count=80,
    xids=_h100_xids(),
    kernel=H100_KERNEL,
)


class PaperTable2Row(NamedTuple):
    """One published Table-2 row (tuple-compatible with the old layout)."""

    gpu_failed_jobs: int
    jobs_encountering: int
    failure_pct: float


#: Table 2 reference: job-failure probability given an XID, plus the job
#: encounter counts the paper reports (used by EXPERIMENTS.md comparisons).
PAPER_TABLE2: Dict[Xid, PaperTable2Row] = {
    Xid.MMU: PaperTable2Row(3_760, 6_408, 58.67),
    Xid.UNCONTAINED: PaperTable2Row(514, 529, 97.16),
    Xid.PMU_SPI: PaperTable2Row(57, 59, 96.61),
    Xid.GSP: PaperTable2Row(36, 36, 100.0),
    Xid.NVLINK: PaperTable2Row(23, 35, 65.71),
    Xid.DBE: PaperTable2Row(9, 10, 90.0),
    Xid.RRF: PaperTable2Row(8, 8, 100.0),
    Xid.CONTAINED: PaperTable2Row(3, 3, 100.0),
    Xid.RRE: PaperTable2Row(1, 2, 50.0),
}

#: Paper headline totals used across EXPERIMENTS.md.
PAPER_TOTAL_ERRORS = 63_253
PAPER_OVERALL_MTBE_NODE_HOURS = 67.0
PAPER_GPU_FAILED_JOBS = 4_322
PAPER_NODE_AVAILABILITY = 0.995
PAPER_MTTR_HOURS = 0.3


# ---------------------------------------------------------------------------
# Tolerance-annotated expectations (repro-delta verify)
# ---------------------------------------------------------------------------


def _expectations() -> Dict[str, PaperExpectation]:
    """The verifiable subset of the paper's numbers, with tolerance bands.

    Keys are ``"<experiment id>.<metric name>"``.  Bands were calibrated
    against the default reproduction (scale 0.05, seed 7) with enough slack
    for sampling noise at that scale but tight enough to catch a genuine
    miscalibration of the generative model.  ``scales_with_window`` marks
    counts that grow with the observation window and are compared after
    multiplying by the dataset's scale.
    """
    two = Tolerance
    return {
        # Table 1
        "table1.total_errors": PaperExpectation(
            float(PAPER_TOTAL_ERRORS), two(rel=0.10), source="Table 1",
            scales_with_window=True),
        "table1.overall_mtbe_node_hours": PaperExpectation(
            PAPER_OVERALL_MTBE_NODE_HOURS, two(rel=0.15), source="Table 1"),
        "table1.memory_vs_hardware_ratio": PaperExpectation(
            30.0, two(rel=0.20, kind="min"), source="Section 4.2",
            note="paper reports >30x; one-sided lower bound"),
        # Table 2
        "table2.total_gpu_failed": PaperExpectation(
            float(PAPER_GPU_FAILED_JOBS), two(rel=0.30), source="Table 2",
            scales_with_window=True),
        "table2.success_rate_pct": PaperExpectation(
            74.68, two(abs=4.0), source="Section 5.1"),
        "table2.p_fail_mmu_pct": PaperExpectation(
            PAPER_TABLE2[Xid.MMU].failure_pct, two(abs=12.0), source="Table 2"),
        "table2.p_fail_uncontained_pct": PaperExpectation(
            PAPER_TABLE2[Xid.UNCONTAINED].failure_pct, two(abs=10.0),
            source="Table 2"),
        # Table 3
        "table3.single_gpu_share_pct": PaperExpectation(
            69.86, two(abs=3.0), source="Table 3"),
        # Figure 5
        "fig5.p_gsp_self_or_terminal": PaperExpectation(
            0.99, two(abs=0.05), source="Figure 5"),
        "fig5.p_gsp_to_pmu": PaperExpectation(
            0.01, two(abs=0.02), source="Figure 5"),
        "fig5.p_gsp_isolated": PaperExpectation(
            0.99, two(abs=0.05), source="Figure 5"),
        "fig5.p_pmu_to_mmu": PaperExpectation(
            0.82, two(abs=0.20), source="Figure 5"),
        "fig5.p_pmu_self": PaperExpectation(
            0.18, two(abs=0.20), source="Figure 5"),
        # Figure 6
        "fig6.p_nvlink_self": PaperExpectation(
            0.66, two(abs=0.15), source="Figure 6"),
        "fig6.p_nvlink_inter": PaperExpectation(
            0.14, two(abs=0.10), source="Figure 6"),
        "fig6.p_nvlink_error_state": PaperExpectation(
            0.20, two(abs=0.15), source="Figure 6"),
        "fig6.single_gpu_pct": PaperExpectation(
            85.0, two(abs=20.0), source="Section 4.4"),
        "fig6.multi_gpu_pct": PaperExpectation(
            15.0, two(abs=20.0), source="Section 4.4"),
        "fig6.four_plus_gpu_pct": PaperExpectation(
            5.0, two(abs=10.0), source="Section 4.4"),
        "fig6.all8_errors": PaperExpectation(
            35.0, two(abs=5.0), source="Section 4.4", scales_with_window=True),
        # Figure 7 (support-gated: DBE/RRF are rare at small scales)
        "fig7.p_dbe_to_rre": PaperExpectation(
            0.50, two(abs=0.25), source="Figure 7"),
        "fig7.p_dbe_to_rrf": PaperExpectation(
            0.47, two(abs=0.25), source="Figure 7"),
        "fig7.p_rrf_to_contained": PaperExpectation(
            0.43, two(abs=0.30), source="Figure 7"),
        "fig7.p_rrf_to_uncontained": PaperExpectation(
            0.11, two(abs=0.30), source="Figure 7"),
        "fig7.p_rrf_terminal": PaperExpectation(
            0.46, two(abs=0.40), source="Figure 7"),
        "fig7.dbe_alleviated_pct": PaperExpectation(
            70.6, two(abs=25.0), source="Figure 7"),
        # Figure 9
        "fig9.lost_node_hours": PaperExpectation(
            7_500.0, two(rel=0.60), source="Figure 9a",
            scales_with_window=True),
        "fig9.mean_unavailability_hours": PaperExpectation(
            PAPER_MTTR_HOURS, two(abs=0.15), source="Figure 9c"),
        "fig9.total_downtime_node_hours": PaperExpectation(
            5_700.0, two(rel=0.60), source="Figure 9c",
            scales_with_window=True),
        "fig9.mttf_hours": PaperExpectation(
            PAPER_OVERALL_MTBE_NODE_HOURS, two(rel=0.15), source="Figure 9c"),
        "fig9.mttr_hours": PaperExpectation(
            PAPER_MTTR_HOURS, two(abs=0.15), source="Figure 9c"),
        "fig9.availability_pct": PaperExpectation(
            PAPER_NODE_AVAILABILITY * 100.0, two(abs=0.5),
            source="Section 5.4"),
        "fig9.downtime_minutes_per_day": PaperExpectation(
            7.0, two(rel=0.50), source="Section 5.4"),
        # Section 5.4
        "sec5.4.overprovision_40min_pct": PaperExpectation(
            20.0, two(rel=0.25), source="Section 5.4"),
        "sec5.4.overprovision_5min_pct": PaperExpectation(
            5.0, two(rel=0.35), source="Section 5.4"),
        # Section 5.5
        "sec5.5.baseline_mtbe_node_hours": PaperExpectation(
            PAPER_OVERALL_MTBE_NODE_HOURS, two(rel=0.15), source="Section 5.5"),
        "sec5.5.without_offenders_mtbe_node_hours": PaperExpectation(
            190.0, two(rel=0.35), source="Section 5.5"),
        "sec5.5.offender_improvement": PaperExpectation(
            3.0, two(abs=1.1), source="Section 5.5"),
        "sec5.5.without_offenders_and_hw_mtbe_node_hours": PaperExpectation(
            223.0, two(rel=0.40), source="Section 5.5"),
        "sec5.5.hardware_additional_improvement_pct": PaperExpectation(
            16.0, two(abs=15.0), source="Section 5.5"),
        "sec5.5.baseline_availability_pct": PaperExpectation(
            PAPER_NODE_AVAILABILITY * 100.0, two(abs=0.5),
            source="Section 5.5"),
        "sec5.5.improved_availability_pct": PaperExpectation(
            99.9, two(abs=0.25), source="Section 5.5"),
        # Section 4.2 (iii)
        "sec4.2iii.uncontained_top1_share": PaperExpectation(
            0.99, two(abs=0.05), source="Section 4.2 (iii)"),
        # Section 6
        "sec6.mtbe_node_hours": PaperExpectation(
            4_114.0, two(rel=0.25), source="Section 6"),
        "sec6.xid136_count": PaperExpectation(
            70.0, two(rel=0.35), source="Section 6", scales_with_window=True),
        "sec6.has_remap_anomaly": PaperExpectation(
            1.0, two(abs=0.0), source="Section 6",
            note="DBE/RRF present while RREs are absent"),
        # Methodology
        "pipeline.parity.sequences_identical": PaperExpectation(
            1.0, two(abs=0.0), source="Section 3.2",
            note="batch and streaming Algorithm-1 stages must agree exactly"),
    }


#: Registry of machine-checkable paper expectations, keyed
#: ``"<experiment id>.<metric name>"`` (consumed by result builders and
#: ``repro-delta verify``).
PAPER_EXPECTATIONS: Dict[str, PaperExpectation] = _expectations()


def expectation_for(key: str, *, scale: Optional[float] = None) -> PaperExpectation:
    """Look up an expectation, resolving window scaling when given."""
    expectation = PAPER_EXPECTATIONS[key]
    if scale is not None:
        expectation = expectation.scaled(scale)
    return expectation
