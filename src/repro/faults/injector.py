"""Calibrated fault injection onto a cluster.

The :class:`FaultInjector` turns a :class:`~repro.faults.calibration.CalibrationProfile`
into a concrete :class:`~repro.faults.events.FaultTrace` on a
:class:`~repro.cluster.inventory.ClusterInventory`:

1. Solve the kernel's root-rate equation so expected totals match Table 1.
2. Place root events on GPUs — uniformly, biased toward busy/idle GPU-time
   (via an optional :class:`OccupancySampler`), or concentrated on designated
   offender GPUs with episode structure (bursty defective parts).
3. Walk the propagation kernel from each root (Figures 5-7) and materialize
   follow-up events on the same GPU or an NVLink peer.
4. Enforce that distinct events of the same (GPU, XID) never fall within the
   coalescing window of each other, so the analysis pipeline can in
   principle recover the generated event count exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Protocol, Sequence, Tuple

import numpy as np

from repro.cluster.gpu import GpuDevice
from repro.cluster.inventory import ClusterInventory
from repro.cluster.node import Node, NodeKind
from repro.cluster.topology import nvlink_topology_for
from repro.faults.calibration import CalibrationProfile, solve_root_counts
from repro.faults.chains import walk_chain
from repro.faults.events import ErrorEvent, FaultTrace
from repro.faults.xid import Xid
from repro.util.rng import RngStreams
from repro.util.validation import check_positive

GpuKey = Tuple[str, str]

#: Minimum separation enforced between the end of one event's burst and the
#: start of the next event on the same (GPU, XID): strictly greater than the
#: pipeline's 5-second coalescing window.
COALESCE_GUARD_SECONDS = 6.0


class OccupancySampler(Protocol):
    """Schedule-aware placement oracle supplied by the datasets layer."""

    def sample_busy(
        self, rng: np.random.Generator, n: int
    ) -> Tuple[List[GpuKey], np.ndarray]:
        """``n`` (GPU, time) points with a job active on that GPU."""
        ...

    def sample_idle(
        self, rng: np.random.Generator, n: int
    ) -> Tuple[List[GpuKey], np.ndarray]:
        """``n`` (GPU, time) points with no job active on that GPU."""
        ...


@dataclass(frozen=True)
class InjectorConfig:
    """Injection parameters.

    ``scale`` shrinks (or stretches) the observation window; event counts
    scale proportionally so MTBE statistics are scale-invariant.  The
    number of root events per XID is the rounded expectation
    (paper-faithful totals at ``scale=1``).
    """

    scale: float = 1.0
    seed: int = 7
    #: When True the workload substrate supplies the job-correlated share of
    #: MMU root events (see ``CalibrationProfile.mmu_from_workload_fraction``)
    #: and the injector generates only the hardware share.
    workload_mmu_external: bool = False

    def __post_init__(self) -> None:
        check_positive("scale", self.scale)


@dataclass
class _Placement:
    """Root placements for one XID before chain materialization.

    ``groups`` optionally assigns placements to shared incidents (NVLink
    fanout): placements in one group share a ground-truth chain ID.
    """

    gpus: List[GpuKey] = field(default_factory=list)
    times: List[float] = field(default_factory=list)
    groups: List[int] = field(default_factory=list)
    #: Pre-sampled root persistence (episode placements plan their spacing
    #: around these draws; ``None`` means sample at materialization).
    persistences: List[Optional[float]] = field(default_factory=list)

    def extend(
        self,
        gpus: Sequence[GpuKey],
        times: Sequence[float],
        group: int | None = None,
        persistences: Sequence[float] | None = None,
    ) -> None:
        self.gpus.extend(gpus)
        self.times.extend(float(t) for t in times)
        if group is None:
            start = (self.groups[-1] + 1) if self.groups else 0
            self.groups.extend(range(start, start + len(gpus)))
        else:
            self.groups.extend([group] * len(gpus))
        if persistences is None:
            self.persistences.extend([None] * len(gpus))
        else:
            self.persistences.extend(float(p) for p in persistences)

    def __len__(self) -> int:
        return len(self.gpus)


class FaultInjector:
    """Generate a ground-truth fault trace for one calibration profile."""

    def __init__(
        self,
        profile: CalibrationProfile,
        config: InjectorConfig | None = None,
    ) -> None:
        self.profile = profile
        self.config = config or InjectorConfig()
        self._streams = RngStreams(self.config.seed).fork("faults", profile.name)

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    @property
    def window_seconds(self) -> float:
        return self.profile.window_seconds * self.config.scale

    def population(self, cluster: ClusterInventory) -> Tuple[Node, ...]:
        """The nodes this profile injects into (Ampere vs Hopper parts)."""
        if self.profile.name.endswith("h100"):
            return cluster.hopper_nodes
        return cluster.ampere_nodes

    def root_counts(self) -> Dict[Xid, float]:
        """Expected root counts after scaling and workload-MMU exclusion."""
        totals = self.profile.scaled_counts(self.config.scale)
        # Switch-fault NVLink events are generated outside the kernel; keep
        # the overall NVLink total on target by shrinking the kernel's share.
        n_switch = self._switch_fault_event_count()
        if Xid.NVLINK in totals:
            totals[Xid.NVLINK] = max(0.0, totals[Xid.NVLINK] - n_switch)
        roots = solve_root_counts(totals, self.profile.kernel)
        if self.config.workload_mmu_external and Xid.MMU in roots:
            roots[Xid.MMU] *= 1.0 - self.profile.mmu_from_workload_fraction
        # NVLink incidents fan out to several GPUs at the root (shared
        # link/switch faults), multiplying the events each root produces.
        if Xid.NVLINK in roots:
            roots[Xid.NVLINK] /= self._nvlink_fanout_factor()
        return roots

    def _nvlink_fanout_factor(self) -> float:
        """Expected GPUs involved per NVLink root incident."""
        fanout = getattr(self.profile, "nvlink_fanout", ())
        return 1.0 + sum((k - 1) * p for k, p in fanout)

    def workload_mmu_budget(self) -> float:
        """Expected MMU events the workload substrate should emit."""
        totals = self.profile.scaled_counts(self.config.scale)
        roots = solve_root_counts(totals, self.profile.kernel)
        return roots.get(Xid.MMU, 0.0) * self.profile.mmu_from_workload_fraction

    def generate(
        self,
        cluster: ClusterInventory,
        occupancy: Optional[OccupancySampler] = None,
    ) -> FaultTrace:
        """Generate the full trace for this profile on ``cluster``."""
        nodes = self.population(cluster)
        if not nodes:
            raise ValueError(
                f"cluster has no nodes for profile {self.profile.name!r}"
            )
        gpus = [gpu for node in nodes for gpu in node.gpus]
        events: List[ErrorEvent] = []
        chain_counter = 0

        for xid, root_count in sorted(self.root_counts().items(), key=lambda kv: int(kv[0])):
            rng = self._streams.get("xid", str(int(xid)))
            n = int(round(root_count))
            if n <= 0:
                continue
            if xid is Xid.NVLINK:
                # NVLink incident sizes are geometric x fanout, so a fixed
                # root count carries ~15-30% total-count variance at partial
                # scale.  Generate a surplus of incidents and stop at the
                # calibrated event quota instead.
                quota = int(round(
                    self.profile.scaled_counts(self.config.scale)[Xid.NVLINK]
                    - self._switch_fault_event_count()
                ))
                placement = self._place_roots(
                    rng, xid, int(n * 1.6) + 8, gpus, occupancy
                )
                placement = self._expand_nvlink_fanout(placement, cluster, rng)
                chain_counter = self._materialize(
                    events, cluster, xid, placement, rng, chain_counter, quota=quota
                )
            else:
                placement = self._place_roots(rng, xid, n, gpus, occupancy)
                chain_counter = self._materialize(
                    events, cluster, xid, placement, rng, chain_counter
                )

        chain_counter = self._inject_switch_faults(events, cluster, chain_counter)
        events = self._enforce_separation(events)
        return FaultTrace(
            events=events,
            window_seconds=self.window_seconds,
            node_ids=tuple(sorted(node.node_id for node in nodes)),
            seed=self.config.seed,
        )

    # ------------------------------------------------------------------
    # Root placement
    # ------------------------------------------------------------------

    def _place_roots(
        self,
        rng: np.random.Generator,
        xid: Xid,
        n: int,
        gpus: Sequence[GpuDevice],
        occupancy: Optional[OccupancySampler],
    ) -> _Placement:
        calibration = self.profile.xids[xid]
        placement = _Placement()

        n_offender = 0
        if calibration.offenders is not None:
            n_offender = int(round(n * calibration.offenders.offender_share))
            self._place_offender_episodes(rng, xid, n_offender, gpus, placement)

        n_rest = n - n_offender
        if n_rest <= 0:
            return placement

        n_busy = int(round(n_rest * calibration.busy_bias))
        n_idle = n_rest - n_busy
        if occupancy is not None:
            if n_busy:
                busy_gpus, busy_times = occupancy.sample_busy(rng, n_busy)
                placement.extend(busy_gpus, busy_times)
            if n_idle:
                idle_gpus, idle_times = occupancy.sample_idle(rng, n_idle)
                placement.extend(idle_gpus, idle_times)
        else:
            chosen = rng.integers(0, len(gpus), size=n_rest)
            times = rng.uniform(0.0, self.window_seconds, size=n_rest)
            placement.extend([gpus[i].key for i in chosen], times)
        return placement

    def _place_offender_episodes(
        self,
        rng: np.random.Generator,
        xid: Xid,
        n: int,
        gpus: Sequence[GpuDevice],
        placement: _Placement,
    ) -> None:
        """Episode-structured placement on a few defective GPUs.

        Events on one offender GPU form a sequence whose inter-event gaps
        leave room for each event's duplicate burst, mimicking a part that
        errors near-continuously (Section 4.4.3's bursty uncontained case).
        """
        if n <= 0:
            return
        skew = self.profile.xids[xid].offenders
        assert skew is not None
        k = min(skew.n_offenders, len(gpus))
        offender_indices = rng.choice(len(gpus), size=k, replace=False)
        offenders = [gpus[i].key for i in offender_indices]

        # Allocate events: top GPU takes top_share of the offender mass.
        counts = [0] * k
        counts[0] = int(round(n * skew.top_share)) if k > 1 else n
        remaining = n - counts[0]
        for i in range(1, k):
            share = remaining // (k - 1)
            counts[i] = share
        counts[k - 1 if k > 1 else 0] += n - sum(counts)

        window = self.window_seconds
        testing_end = window
        if skew.testing_phase_share > 0 and skew.testing_phase_days > 0:
            testing_end = min(window, skew.testing_phase_days * 86400.0 * max(
                self.config.scale, 1e-9))
            # The testing phase scales with the window so small-scale runs
            # keep the early-window concentration.

        persistence_model = self.profile.xids[xid].persistence
        for gpu_key, count in zip(offenders, counts):
            if count <= 0:
                continue
            horizon = testing_end if rng.random() < skew.testing_phase_share else window
            durations = persistence_model.sample(rng, count)
            gaps = rng.lognormal(math.log(500.0), 0.7, size=count)
            gaps = np.maximum(gaps, COALESCE_GUARD_SECONDS)
            occupied = durations + gaps
            total = float(occupied.sum())
            if total > horizon * 0.95:
                # Compress gaps (never bursts) to fit the horizon.
                budget = max(horizon * 0.95 - float(durations.sum()), count * 1.0)
                gaps *= budget / float(gaps.sum())
                gaps = np.maximum(gaps, COALESCE_GUARD_SECONDS)
                occupied = durations + gaps
                total = float(occupied.sum())
            start = rng.uniform(0.0, max(horizon - total, 1.0))
            times = start + np.concatenate(([0.0], np.cumsum(occupied[:-1])))
            times = np.minimum(times, self.window_seconds - 1.0)
            # Hand the planned burst durations down so materialization does
            # not re-sample them (a fresh draw would overrun the next
            # event's start and collapse the planned spacing).
            placement.extend([gpu_key] * count, times, persistences=durations)

    def _expand_nvlink_fanout(
        self, placement: _Placement, cluster: ClusterInventory, rng: np.random.Generator
    ) -> _Placement:
        """Expand NVLink roots into multi-GPU incidents (Figure 6 structure).

        A shared link/switch fault makes several end-points log NVLink
        errors within seconds; each involved GPU then runs its own
        recurrence chain.  Fanout is clamped to the GPU's NVLink-reachable
        set (A40 bridge pairs can only involve two GPUs).
        """
        fanout = getattr(self.profile, "nvlink_fanout", ())
        if not fanout:
            return placement
        expanded = _Placement()
        for incident, (gpu_key, t) in enumerate(zip(placement.gpus, placement.times)):
            expanded.extend([gpu_key], [t], group=incident)
            draw = rng.random()
            cumulative = 0.0
            target = 1
            for k, prob in fanout:
                cumulative += prob
                if draw < cumulative:
                    target = k
                    break
            if target <= 1:
                continue
            node = cluster.node(gpu_key[0])
            topology = nvlink_topology_for(node)
            if topology is None:
                continue
            slot = node.gpu_by_bus(gpu_key[1]).index
            reachable = [
                s for s in topology.reachable(slot) if s != slot and s < node.gpu_count
            ]
            if len(reachable) < target - 1:
                # The fault needs a wider NVLink domain than this GPU has
                # (e.g. a 4-GPU fault on an A40 bridge pair): relocate the
                # incident to a fully-connected node.
                candidates = [
                    n for n in self.population(cluster)
                    if n.gpu_count >= target and (top := nvlink_topology_for(n))
                    and len(top.reachable(0)) >= target
                ]
                if candidates:
                    node = candidates[int(rng.integers(0, len(candidates)))]
                    slot = int(rng.integers(0, node.gpu_count))
                    gpu_key = (node.node_id, node.gpus[slot].pci_bus)
                    expanded.gpus[-1] = gpu_key  # move the root event too
                    topology = nvlink_topology_for(node)
                    reachable = [
                        s for s in topology.reachable(slot)
                        if s != slot and s < node.gpu_count
                    ]
            n_extra = min(target - 1, len(reachable))
            if n_extra <= 0:
                continue
            picks = rng.choice(len(reachable), size=n_extra, replace=False)
            for pick in picks:
                peer_bus = node.gpus[reachable[int(pick)]].pci_bus
                expanded.extend(
                    [(node.node_id, peer_bus)],
                    [t + float(rng.uniform(0.5, 5.0))],
                    group=incident,
                )
        return expanded

    # ------------------------------------------------------------------
    # Chain materialization
    # ------------------------------------------------------------------

    def _materialize(
        self,
        events: List[ErrorEvent],
        cluster: ClusterInventory,
        root_xid: Xid,
        placement: _Placement,
        rng: np.random.Generator,
        chain_counter: int,
        quota: int | None = None,
    ) -> int:
        window = self.window_seconds
        kernel = self.profile.kernel
        groups = placement.groups or list(range(len(placement)))
        planned = placement.persistences or [None] * len(placement)
        members_seen: Dict[int, int] = {}
        produced = 0
        last_group: int | None = None
        for gpu_key, t0, group, root_persistence in zip(
            placement.gpus, placement.times, groups, planned
        ):
            if quota is not None and produced >= quota and group != last_group:
                break  # quota met: stop at an incident boundary
            last_group = group
            member = members_seen.get(group, 0)
            members_seen[group] = member + 1
            # Fanout members of one incident share a chain ID; their step
            # positions are offset so positions stay unique within the chain.
            pos_offset = member * 1000
            steps = walk_chain(root_xid, kernel, rng)
            current_key = gpu_key
            t = float(t0)
            prev_end = t
            for position, step in enumerate(steps):
                if position > 0:
                    t = prev_end + step.delay_after_prev
                    if step.on_peer:
                        current_key = self._pick_peer(cluster, current_key, rng)
                if t >= window:
                    break
                if position == 0 and root_persistence is not None:
                    persistence = float(root_persistence)
                else:
                    persistence = float(
                        self.profile.xids[step.xid].persistence.sample(rng, 1)[0]
                    )
                persistence = min(persistence, max(0.0, window - t - 1.0))
                events.append(
                    ErrorEvent(
                        time=t,
                        node_id=current_key[0],
                        pci_bus=current_key[1],
                        xid=step.xid,
                        persistence=persistence,
                        chain_id=chain_counter + group,
                        chain_pos=pos_offset + position,
                        inoperable=step.inoperable,
                    )
                )
                produced += 1
                prev_end = t + persistence
        n_groups = (max(groups) + 1) if groups else 0
        return chain_counter + n_groups

    def _pick_peer(
        self, cluster: ClusterInventory, gpu_key: GpuKey, rng: np.random.Generator
    ) -> GpuKey:
        node_id, pci_bus = gpu_key
        node = cluster.node(node_id)
        topology = nvlink_topology_for(node)
        gpu = node.gpu_by_bus(pci_bus)
        if topology is None:
            return gpu_key
        peers = topology.peers(gpu.index)
        peers = tuple(p for p in peers if p < node.gpu_count)
        if not peers:
            return gpu_key
        slot = int(peers[int(rng.integers(0, len(peers)))])
        return (node_id, node.gpus[slot].pci_bus)

    # ------------------------------------------------------------------
    # NVSwitch whole-board faults (Figure 6's all-eight-GPU cases)
    # ------------------------------------------------------------------

    def _switch_fault_event_count(self) -> int:
        if Xid.NVLINK not in self.profile.xids:
            return 0
        incidents = int(round(self.profile.nvlink_switch_fault_incidents * self.config.scale))
        return incidents * 8

    def _inject_switch_faults(
        self, events: List[ErrorEvent], cluster: ClusterInventory, chain_counter: int
    ) -> int:
        n_events = self._switch_fault_event_count()
        if n_events == 0:
            return chain_counter
        eight_way = [n for n in self.population(cluster) if n.kind is NodeKind.A100_X8]
        if not eight_way:
            return chain_counter
        rng = self._streams.get("switch-faults")
        incidents = n_events // 8
        for _ in range(incidents):
            node = eight_way[int(rng.integers(0, len(eight_way)))]
            t0 = float(rng.uniform(0.0, max(self.window_seconds - 60.0, 1.0)))
            for offset, gpu in enumerate(node.gpus):
                persistence = float(
                    self.profile.xids[Xid.NVLINK].persistence.sample(rng, 1)[0]
                )
                events.append(
                    ErrorEvent(
                        time=t0 + offset * 0.4,
                        node_id=node.node_id,
                        pci_bus=gpu.pci_bus,
                        xid=Xid.NVLINK,
                        persistence=persistence,
                        chain_id=chain_counter,
                        chain_pos=offset,
                        inoperable=offset == 0,
                    )
                )
            chain_counter += 1
        return chain_counter

    # ------------------------------------------------------------------
    # Separation guarantee
    # ------------------------------------------------------------------

    def _enforce_separation(self, events: List[ErrorEvent]) -> List[ErrorEvent]:
        """Push same-(GPU, XID) events apart so bursts never touch.

        Two events of the same code on the same GPU whose bursts come within
        the coalescing window would be merged by the pipeline into a single
        error, silently deflating counts; this pass guarantees the generated
        count is recoverable.
        """
        window = self.window_seconds
        grouped: Dict[Tuple[GpuKey, Xid], List[ErrorEvent]] = {}
        for event in events:
            grouped.setdefault((event.gpu_key, event.xid), []).append(event)

        out: List[ErrorEvent] = []
        from dataclasses import replace

        for group in grouped.values():
            group.sort(key=lambda e: e.time)
            prev_end = -math.inf
            for event in group:
                t = event.time
                if t < prev_end + COALESCE_GUARD_SECONDS:
                    t = prev_end + COALESCE_GUARD_SECONDS
                if t >= window:
                    continue  # pushed out of the window: drop
                persistence = min(event.persistence, max(0.0, window - t - 0.5))
                if t != event.time or persistence != event.persistence:
                    event = replace(event, time=t, persistence=persistence)
                out.append(event)
                prev_end = event.end_time
        return out
