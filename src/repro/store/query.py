"""Predicate pushdown: which records — and which *segments* — match.

A :class:`Query` is a conjunction of four optional predicates over the
coalesced-record schema: a closed time window, an XID set, a node set,
and a GPU-serial set (``"<node>/<pci-bus>"``, the identity the paper
uses to attribute log lines).  The same object answers two questions:

* :meth:`matches_zone` — can *any* record in a segment match, judged
  from the segment's zone map alone (min/max timestamp plus the XID /
  node / serial sets the segment footer records)?  Segments that cannot
  match are never opened, let alone decoded — that is the pushdown.
* :meth:`mask` — which rows of a decoded segment match, evaluated as
  one vectorized boolean mask over the column arrays.

Both answers are conservative in the right direction: a zone-map miss is
definitive (the segment holds no matching record), a zone-map hit only
means "must look inside".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, FrozenSet, Iterable, Mapping, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.parsing import XidBatch


def gpu_serial(node_id: str, pci_bus: str) -> str:
    """The store's GPU identity string: ``"<node>/<pci-bus>"``."""
    return f"{node_id}/{pci_bus}"


def _freeze(values: Optional[Iterable]) -> Optional[FrozenSet]:
    if values is None:
        return None
    frozen = frozenset(values)
    return frozen if frozen else None


@dataclass(frozen=True)
class Query:
    """A conjunction of predicates over stored XID records.

    ``time_range`` is a closed interval ``(start, end)`` in epoch
    seconds; either bound may be ``None`` for half-open windows.  The
    set predicates (``xids``, ``nodes``, ``serials``) each accept any
    iterable and mean "record's value is in this set"; ``None`` (or an
    empty iterable) leaves the dimension unconstrained.
    """

    time_range: Optional[Tuple[Optional[float], Optional[float]]] = None
    xids: Optional[FrozenSet[int]] = None
    nodes: Optional[FrozenSet[str]] = None
    serials: Optional[FrozenSet[str]] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "xids", _freeze(self.xids))
        object.__setattr__(self, "nodes", _freeze(self.nodes))
        object.__setattr__(self, "serials", _freeze(self.serials))
        if self.time_range is not None:
            start, end = self.time_range
            if start is None and end is None:
                object.__setattr__(self, "time_range", None)
            elif start is not None and end is not None and start > end:
                raise ValueError(
                    f"empty time range: start {start} > end {end}"
                )

    # ------------------------------------------------------------------

    @property
    def unconstrained(self) -> bool:
        """True when every record matches (the full-scan query)."""
        return (
            self.time_range is None
            and self.xids is None
            and self.nodes is None
            and self.serials is None
        )

    def matches_record(self, record) -> bool:
        """Row-at-a-time predicate (the streaming / non-numpy path)."""
        if self.time_range is not None:
            start, end = self.time_range
            if start is not None and record.time < start:
                return False
            if end is not None and record.time > end:
                return False
        if self.xids is not None and record.xid not in self.xids:
            return False
        if self.nodes is not None and record.node_id not in self.nodes:
            return False
        if self.serials is not None:
            if gpu_serial(record.node_id, record.pci_bus) not in self.serials:
                return False
        return True

    # ------------------------------------------------------------------
    # Pushdown against a zone map
    # ------------------------------------------------------------------

    def matches_zone(self, zone: Mapping[str, object]) -> bool:
        """Can any record under this zone map match?

        ``zone`` carries ``time_min`` / ``time_max`` plus the segment's
        ``xids`` / ``nodes`` / ``serials`` value sets (sequences).  A
        ``False`` here is a proof of emptiness — the segment is skipped
        without being read.
        """
        if self.time_range is not None:
            start, end = self.time_range
            if start is not None and float(zone["time_max"]) < start:
                return False
            if end is not None and float(zone["time_min"]) > end:
                return False
        if self.xids is not None:
            if self.xids.isdisjoint(int(x) for x in zone["xids"]):
                return False
        if self.nodes is not None:
            if self.nodes.isdisjoint(str(n) for n in zone["nodes"]):
                return False
        if self.serials is not None:
            if self.serials.isdisjoint(str(s) for s in zone["serials"]):
                return False
        return True

    # ------------------------------------------------------------------
    # Vectorized residual predicate over decoded columns
    # ------------------------------------------------------------------

    def mask(self, columns: "XidBatch"):
        """Boolean row mask over one decoded segment (numpy)."""
        import numpy as np

        n = len(columns.time)
        mask = np.ones(n, dtype=bool)
        if self.time_range is not None:
            start, end = self.time_range
            if start is not None:
                mask &= columns.time >= start
            if end is not None:
                mask &= columns.time <= end
        if self.xids is not None:
            mask &= np.isin(columns.xid, np.fromiter(self.xids, dtype=np.int64))
        if self.nodes is not None:
            codes = [
                code for code, name in enumerate(columns.node_dict)
                if name in self.nodes
            ]
            mask &= np.isin(columns.node, np.asarray(codes, dtype=np.int64))
        if self.serials is not None:
            allowed = set()
            node_index = {name: code for code, name in enumerate(columns.node_dict)}
            pci_index = {name: code for code, name in enumerate(columns.pci_dict)}
            for serial in self.serials:
                node_id, _, pci = serial.rpartition("/")
                node_code = node_index.get(node_id)
                pci_code = pci_index.get(pci)
                if node_code is not None and pci_code is not None:
                    allowed.add((node_code << 32) | pci_code)
            combined = (columns.node.astype(np.int64) << 32) | columns.pci.astype(
                np.int64
            )
            mask &= np.isin(
                combined, np.fromiter(allowed, dtype=np.int64, count=len(allowed))
            ) if allowed else np.zeros(n, dtype=bool)
        return mask

    # ------------------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "time_range": list(self.time_range) if self.time_range else None,
            "xids": sorted(self.xids) if self.xids else None,
            "nodes": sorted(self.nodes) if self.nodes else None,
            "serials": sorted(self.serials) if self.serials else None,
        }


#: The match-everything query (full scans pass this instead of ``None``
#: so call sites never branch).
MATCH_ALL = Query()
