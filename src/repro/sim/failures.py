"""The calibrated failure process a training job is exposed to.

Rates come from the same place the injector's do: the per-XID totals of a
:class:`~repro.faults.calibration.CalibrationProfile` are reduced to root
(spontaneous) counts through the propagation kernel
(:func:`~repro.faults.calibration.solve_root_counts`), normalized to
per-node-hour rates over the profile's window, and chains are replayed
through :func:`~repro.faults.chains.walk_chain` — so a simulated job sees
the paper's failure process, not an independent re-model of it.

Two structural features of the measured process matter for a what-if and
are modelled explicitly:

* **Workload-induced MMU errors** are excluded by default: a production
  training job is assumed not to emit its own illegal-access errors, so
  only the hardware share of the MMU budget threatens it.
* **Defective parts (offenders)** are a lottery, not a fleet-average rate.
  Each code's offender share is concentrated on its ``n_offenders`` GPUs
  (the worst taking ``top_share`` — for uncontained errors one GPU carries
  99 %).  A run samples which offenders land inside the allocation; a
  drain-and-substitute policy can then *evict* one permanently, which is
  exactly the operational lever Section 5.5 quantifies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.faults.calibration import CalibrationProfile, solve_root_counts
from repro.faults.chains import walk_chain
from repro.faults.xid import Xid
from repro.util.rng import spawn_rng

#: Chain walks per XID used to estimate the probability a root event's chain
#: interrupts the job (drives the Young/Daly MTBF estimate).
_FATAL_MC_SAMPLES = 512


@dataclass(frozen=True)
class FailureDraw:
    """One resolved root fault: its chain and its consequence for the job."""

    root_xid: Xid
    chain: Tuple[Xid, ...]
    #: The chain contained an event that kills the job it hits (Table 2).
    fatal: bool
    fatal_xid: Optional[Xid]
    #: The chain left a GPU inoperable: its node must be drained/repaired.
    inoperable: bool
    #: Sampled node repair duration (hours); 0 when not inoperable.
    repair_hours: float
    #: Index into the allocation's offender components, if this event came
    #: from a defective part rather than the uniform background.
    offender_index: Optional[int] = None

    @property
    def interrupts(self) -> bool:
        """Whether the job is interrupted (killed or lost a GPU)."""
        return self.fatal or self.inoperable


@dataclass
class _OffenderComponent:
    """One defective GPU inside the allocation: a concentrated point rate."""

    xid: Xid
    rate_per_hour: float
    active: bool = True  # False while its node is drained or after eviction


@dataclass
class AllocationFailureState:
    """The failure process as seen by one concrete allocation.

    Mutable: policies change it mid-run (evicting an offender onto a spare,
    shrinking an elastic allocation).  The engine re-samples the next
    arrival after every mutation — exact for exponential arrivals.
    """

    model: "FailureModel"
    n_nodes: int
    n_active_nodes: int
    offenders: List[_OffenderComponent] = field(default_factory=list)
    offenders_evicted: int = 0

    # -- rates -----------------------------------------------------------

    def total_rate(self) -> float:
        """Root events per hour across the current allocation."""
        rate = self.model.base_rate_per_node_hour * self.n_active_nodes
        rate += sum(c.rate_per_hour for c in self.offenders if c.active)
        return rate

    def fatal_rate(self) -> float:
        """Expected job-interrupting events per hour (for Young's MTBF)."""
        rate = 0.0
        for xid, per_node in self.model.base_rates.items():
            rate += per_node * self.n_active_nodes * self.model.interrupt_prob(xid)
        for component in self.offenders:
            if component.active:
                rate += component.rate_per_hour * self.model.interrupt_prob(component.xid)
        return rate

    def next_gap_hours(self, rng: np.random.Generator) -> float:
        rate = self.total_rate()
        if rate <= 0.0:
            return math.inf
        return float(rng.exponential(1.0 / rate))

    # -- drawing ---------------------------------------------------------

    def draw(self, rng: np.random.Generator) -> FailureDraw:
        """Resolve the arrived root event: source, chain, consequence."""
        base_total = self.model.base_rate_per_node_hour * self.n_active_nodes
        active = [(i, c) for i, c in enumerate(self.offenders) if c.active]
        offender_total = sum(c.rate_per_hour for _, c in active)
        pick = rng.uniform(0.0, base_total + offender_total)
        if pick < base_total or not active:
            root = self.model.sample_base_root(rng)
            return self.model.resolve(root, rng)
        pick -= base_total
        for index, component in active:
            pick -= component.rate_per_hour
            if pick <= 0.0:
                return self.model.resolve(component.xid, rng, offender_index=index)
        index, component = active[-1]
        return self.model.resolve(component.xid, rng, offender_index=index)

    # -- mutations (policies) --------------------------------------------

    def evict_offender(self, index: int) -> None:
        """Permanently remove a defective part (hot-spare substitution)."""
        if self.offenders[index].active:
            self.offenders[index].active = False
            self.offenders_evicted += 1

    def suspend_offender(self, index: int) -> None:
        """Temporarily silence a drained offender (elastic shrink)."""
        self.offenders[index].active = False

    def resume_offender(self, index: int) -> None:
        """The drained node (defective part and all) rejoins the allocation."""
        self.offenders[index].active = True


class FailureModel:
    """Per-profile failure rates plus chain resolution.

    Read-only after construction, so one instance serves every run of its
    profile; :meth:`allocation_state` samples the per-run offender lottery
    and returns the mutable view the engine works with.
    """

    def __init__(self, profile: CalibrationProfile) -> None:
        self.profile = profile
        window_hours = profile.window_days * 24.0
        roots = solve_root_counts(profile.scaled_counts(1.0), profile.kernel)
        if Xid.MMU in roots:
            roots[Xid.MMU] *= 1.0 - profile.mmu_from_workload_fraction

        #: Uniform background: per-node-per-hour root rate by XID.
        self.base_rates: Dict[Xid, float] = {}
        #: Cluster-wide offender rate by XID with per-GPU weights.
        self.offender_rates: Dict[Xid, Tuple[float, Tuple[float, ...]]] = {}
        for xid, count in sorted(roots.items(), key=lambda kv: int(kv[0])):
            if count <= 0:
                continue
            calibration = profile.xids.get(xid)
            skew = calibration.offenders if calibration is not None else None
            share = skew.offender_share if skew is not None else 0.0
            base = count * (1.0 - share) / (window_hours * profile.reference_node_count)
            if base > 0:
                self.base_rates[xid] = base
            if skew is not None and share > 0:
                total = count * share / window_hours
                k = skew.n_offenders
                if k == 1:
                    weights: Tuple[float, ...] = (1.0,)
                else:
                    rest = (1.0 - skew.top_share) / (k - 1)
                    weights = (skew.top_share,) + (rest,) * (k - 1)
                self.offender_rates[xid] = (total, weights)

        self.base_rate_per_node_hour = sum(self.base_rates.values())
        self._base_xids = tuple(self.base_rates)
        base_values = np.array([self.base_rates[x] for x in self._base_xids])
        self._base_probs = (
            base_values / base_values.sum() if base_values.size else base_values
        )
        self._interrupt_probs = self._estimate_interrupt_probs()

    # -- chain statistics -------------------------------------------------

    def _estimate_interrupt_probs(self) -> Dict[Xid, float]:
        """Monte-Carlo P(chain interrupts the job) per root XID.

        Uses a fixed stream derived from the profile name so the estimate —
        and hence Young's interval — is deterministic per profile.
        """
        probs: Dict[Xid, float] = {}
        roots = set(self._base_xids) | set(self.offender_rates)
        for xid in sorted(roots, key=int):
            rng = spawn_rng(0, "sim", "interrupt-mc", self.profile.name, str(int(xid)))
            hits = 0
            for _ in range(_FATAL_MC_SAMPLES):
                draw = self.resolve(xid, rng)
                if draw.interrupts:
                    hits += 1
            probs[xid] = hits / _FATAL_MC_SAMPLES
        return probs

    def interrupt_prob(self, xid: Xid) -> float:
        return self._interrupt_probs.get(xid, 1.0)

    def job_failure_prob(self, xid: Xid) -> float:
        calibration = self.profile.xids.get(xid)
        return calibration.job_failure_prob if calibration is not None else 1.0

    # -- sampling ----------------------------------------------------------

    def sample_base_root(self, rng: np.random.Generator) -> Xid:
        if not self._base_xids:
            raise ValueError(f"profile {self.profile.name!r} has no background rates")
        index = int(rng.choice(len(self._base_xids), p=self._base_probs))
        return self._base_xids[index]

    def resolve(
        self,
        root_xid: Xid,
        rng: np.random.Generator,
        offender_index: Optional[int] = None,
    ) -> FailureDraw:
        """Replay one chain from ``root_xid`` and score its consequence."""
        steps = walk_chain(root_xid, self.profile.kernel, rng)
        fatal = False
        fatal_xid: Optional[Xid] = None
        inoperable = False
        for step in steps:
            if step.inoperable:
                inoperable = True
            if not fatal and rng.random() < self.job_failure_prob(step.xid):
                fatal = True
                fatal_xid = step.xid
        repair_hours = 0.0
        if inoperable:
            repair_hours = float(self.profile.repair.sample_hours(rng, 1)[0])
        return FailureDraw(
            root_xid=root_xid,
            chain=tuple(step.xid for step in steps),
            fatal=fatal,
            fatal_xid=fatal_xid,
            inoperable=inoperable,
            repair_hours=repair_hours,
            offender_index=offender_index,
        )

    def allocation_state(
        self,
        *,
        n_nodes: int,
        n_gpus: int,
        population_gpus: int,
        rng: np.random.Generator,
    ) -> AllocationFailureState:
        """Sample the offender lottery for one allocation.

        Each defective GPU lands inside the allocation independently with
        probability ``n_gpus / population_gpus`` (capped at 1 for jobs
        larger than the reference population).
        """
        include_prob = min(1.0, n_gpus / max(population_gpus, 1))
        components: List[_OffenderComponent] = []
        for xid, (total_rate, weights) in sorted(
            self.offender_rates.items(), key=lambda kv: int(kv[0])
        ):
            for weight in weights:
                if rng.random() < include_prob:
                    components.append(
                        _OffenderComponent(xid=xid, rate_per_hour=total_rate * weight)
                    )
        return AllocationFailureState(
            model=self,
            n_nodes=n_nodes,
            n_active_nodes=n_nodes,
            offenders=components,
        )
