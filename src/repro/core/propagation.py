"""Error-propagation analysis (paper Section 4.4, Figures 5-7).

From the coalesced error stream alone, estimate how errors propagate:

* **intra-GPU**: for each error, the next error on the *same* GPU within a
  window is its successor; ``P(e2 | e1) = #(e1 followed by e2) / #e1``.
* **inter-GPU**: successors on a *different* GPU of the same node (NVLink
  spread, Figure 6).
* **terminal probability**: errors with no successor within the window.

Average propagation times annotate each edge, as on the paper's figures.
The NVLink involvement analysis groups NVLink errors on one node into
incident clusters and counts distinct GPUs per cluster (the 84% / 16% /
all-eight breakdown).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.coalesce import CoalescedError
from repro.faults.xid import Xid

#: Propagation window in seconds.  Must exceed the 5-second coalescing
#: window (identical messages within that window were already merged) and
#: cover the same-code recurrence delays seen in the data.
PROPAGATION_WINDOW = 60.0

Edge = Tuple[int, int]  # (source xid, target xid)


@dataclass
class EdgeStats:
    count: int = 0
    total_delay: float = 0.0

    @property
    def mean_delay(self) -> float:
        return self.total_delay / self.count if self.count else float("nan")


@dataclass
class PropagationGraph:
    """Estimated propagation structure over XID codes."""

    source_counts: Dict[int, int] = field(default_factory=dict)
    intra_edges: Dict[Edge, EdgeStats] = field(default_factory=dict)
    inter_edges: Dict[Edge, EdgeStats] = field(default_factory=dict)
    #: Errors with no successor at all within the window.
    terminal_counts: Dict[int, int] = field(default_factory=dict)
    #: Errors with no predecessor within the window (isolation, e.g. the
    #: paper's "99% of GSP errors appeared in isolation").
    isolated_counts: Dict[int, int] = field(default_factory=dict)

    def probability(self, source: int, target: int, *, inter: bool = False) -> float:
        """``P(target | source)`` over intra- or inter-GPU edges."""
        n_source = self.source_counts.get(int(source), 0)
        if n_source == 0:
            return 0.0
        edges = self.inter_edges if inter else self.intra_edges
        stats = edges.get((int(source), int(target)))
        return stats.count / n_source if stats else 0.0

    def mean_delay(self, source: int, target: int) -> float:
        stats = self.intra_edges.get((int(source), int(target)))
        return stats.mean_delay if stats else float("nan")

    def terminal_probability(self, source: int) -> float:
        n_source = self.source_counts.get(int(source), 0)
        if n_source == 0:
            return 0.0
        return self.terminal_counts.get(int(source), 0) / n_source

    def isolation_probability(self, source: int) -> float:
        n_source = self.source_counts.get(int(source), 0)
        if n_source == 0:
            return 0.0
        return self.isolated_counts.get(int(source), 0) / n_source


@dataclass(frozen=True)
class NVLinkInvolvement:
    """Figure 6's multi-GPU involvement breakdown."""

    total_errors: int
    errors_in_multi_gpu_incidents: int
    errors_in_4plus_gpu_incidents: int
    errors_in_all8_incidents: int
    incident_gpu_counts: Tuple[int, ...]

    @property
    def single_gpu_fraction(self) -> float:
        if self.total_errors == 0:
            return 0.0
        return 1.0 - self.errors_in_multi_gpu_incidents / self.total_errors

    @property
    def multi_gpu_fraction(self) -> float:
        if self.total_errors == 0:
            return 0.0
        return self.errors_in_multi_gpu_incidents / self.total_errors


class PropagationAnalyzer:
    """Estimate propagation statistics from coalesced errors."""

    def __init__(self, errors: Sequence[CoalescedError]) -> None:
        self.errors = sorted(errors, key=lambda e: e.time)
        self._by_gpu: Dict[Tuple[str, str], List[CoalescedError]] = {}
        self._by_node: Dict[str, List[CoalescedError]] = {}
        for error in self.errors:
            self._by_gpu.setdefault(error.gpu_key, []).append(error)
            self._by_node.setdefault(error.node_id, []).append(error)

    # ------------------------------------------------------------------

    def analyze(self) -> PropagationGraph:
        graph = PropagationGraph()
        for error in self.errors:
            graph.source_counts[error.xid] = graph.source_counts.get(error.xid, 0) + 1

        for gpu_errors in self._by_gpu.values():
            times = np.array([e.time for e in gpu_errors])
            for i, error in enumerate(gpu_errors):
                # Successor: the next error on this GPU within the window,
                # measured from the end of this error's burst (the driver
                # cannot log a distinct follow-up while still repeating the
                # same message).
                if i + 1 < len(gpu_errors):
                    successor = gpu_errors[i + 1]
                    gap = successor.time - error.end_time
                    if 0.0 <= gap <= PROPAGATION_WINDOW or (
                        successor.time - error.time
                    ) <= PROPAGATION_WINDOW:
                        edge = (error.xid, successor.xid)
                        stats = graph.intra_edges.setdefault(edge, EdgeStats())
                        stats.count += 1
                        stats.total_delay += successor.time - error.time
                        continue
                graph.terminal_counts[error.xid] = (
                    graph.terminal_counts.get(error.xid, 0) + 1
                )
            # Isolation: no predecessor within the window.
            for i, error in enumerate(gpu_errors):
                if i == 0 or (error.time - gpu_errors[i - 1].end_time) > PROPAGATION_WINDOW:
                    graph.isolated_counts[error.xid] = (
                        graph.isolated_counts.get(error.xid, 0) + 1
                    )

        self._analyze_inter_gpu(graph)
        return graph

    def _analyze_inter_gpu(self, graph: PropagationGraph) -> None:
        """Nearest cross-GPU successor within the window, per node."""
        for node_errors in self._by_node.values():
            n = len(node_errors)
            for i, error in enumerate(node_errors):
                for j in range(i + 1, n):
                    other = node_errors[j]
                    if other.time - error.time > PROPAGATION_WINDOW:
                        break
                    if other.gpu_key == error.gpu_key:
                        continue
                    edge = (error.xid, other.xid)
                    stats = graph.inter_edges.setdefault(edge, EdgeStats())
                    stats.count += 1
                    stats.total_delay += other.time - error.time
                    break  # nearest cross-GPU successor only

    # ------------------------------------------------------------------

    def nvlink_involvement(self) -> NVLinkInvolvement:
        """Cluster NVLink errors per node and count involved GPUs.

        Errors on one node whose inter-arrival gaps stay within the
        propagation window form one incident; an incident's involvement is
        its number of distinct GPUs.
        """
        multi = 0
        four_plus = 0
        all8 = 0
        total = 0
        incident_sizes: List[int] = []
        for node_errors in self._by_node.values():
            nvlink = [e for e in node_errors if e.xid == int(Xid.NVLINK)]
            if not nvlink:
                continue
            cluster: List[CoalescedError] = []
            last_time: Optional[float] = None
            for error in nvlink + [None]:  # type: ignore[list-item]
                if error is not None and (
                    last_time is None or error.time - last_time <= PROPAGATION_WINDOW
                ):
                    cluster.append(error)
                    last_time = error.time
                    continue
                if cluster:
                    gpus = {e.gpu_key for e in cluster}
                    size = len(cluster)
                    total += size
                    incident_sizes.append(len(gpus))
                    if len(gpus) >= 2:
                        multi += size
                    if len(gpus) >= 4:
                        four_plus += size
                    if len(gpus) >= 8:
                        all8 += size
                if error is not None:
                    cluster = [error]
                    last_time = error.time
        return NVLinkInvolvement(
            total_errors=total,
            errors_in_multi_gpu_incidents=multi,
            errors_in_4plus_gpu_incidents=four_plus,
            errors_in_all8_incidents=all8,
            incident_gpu_counts=tuple(incident_sizes),
        )

    # ------------------------------------------------------------------

    def memory_recovery_paths(self) -> Dict[str, float]:
        """Figure 7's DBE recovery tree, as measured.

        Returns the branch probabilities plus the overall DBE "alleviation"
        rate (RRE success + containment after RRF), the paper's 70.6%.
        """
        graph = self.analyze()
        p_dbe_rre = graph.probability(Xid.DBE, Xid.RRE)
        p_dbe_rrf = graph.probability(Xid.DBE, Xid.RRF)
        p_rrf_contained = graph.probability(Xid.RRF, Xid.CONTAINED)
        p_rrf_uncontained = graph.probability(Xid.RRF, Xid.UNCONTAINED)
        alleviated = p_dbe_rre + p_dbe_rrf * p_rrf_contained
        return {
            "p_dbe_to_rre": p_dbe_rre,
            "p_dbe_to_rrf": p_dbe_rrf,
            "p_rrf_to_contained": p_rrf_contained,
            "p_rrf_to_uncontained": p_rrf_uncontained,
            "p_rrf_terminal": graph.terminal_probability(Xid.RRF),
            "dbe_alleviated": alleviated,
        }

    def hardware_paths(self) -> Dict[str, float]:
        """Figure 5's headline hardware-propagation numbers, as measured."""
        graph = self.analyze()
        return {
            "p_gsp_self_or_terminal": graph.probability(Xid.GSP, Xid.GSP)
            + graph.terminal_probability(Xid.GSP),
            "p_gsp_to_pmu": graph.probability(Xid.GSP, Xid.PMU_SPI),
            "p_gsp_isolated": graph.isolation_probability(Xid.GSP),
            "p_pmu_to_mmu": graph.probability(Xid.PMU_SPI, Xid.MMU),
            "p_pmu_self": graph.probability(Xid.PMU_SPI, Xid.PMU_SPI),
            "t_pmu_to_mmu": graph.mean_delay(Xid.PMU_SPI, Xid.MMU),
            "p_nvlink_self": graph.probability(Xid.NVLINK, Xid.NVLINK),
            "p_nvlink_inter": graph.probability(Xid.NVLINK, Xid.NVLINK, inter=True),
            "p_nvlink_terminal": graph.terminal_probability(Xid.NVLINK),
        }
