"""A small, alert-rich simulated cluster for live service demos and tests.

The full Ampere calibration reproduces the paper's *rates* — at demo
scales that means minutes of wall clock before anything interesting
happens and no guarantee the rare codes (XID 79 appears 31 times in 855
days) show up at all.  This module compresses the interesting failure
modes into a two-day window on a few nodes so that ``repro-delta serve
--simulate``, the integration tests, and ``examples/live_fleet_service.py``
each see every default alert rule fire: a fall-off-the-bus, repeated GSP
timeouts, a DBE -> row-remap chain, a bursty uncontained offender, and a
long-persisting run that trips the Section-4.3 persistence alarm.

The *mechanisms* are untouched: events come from the real
:class:`~repro.faults.injector.FaultInjector` walking a real propagation
kernel; only the counts and window are demo-sized.
"""

from __future__ import annotations

from typing import Dict

from repro.cluster import ClusterInventory, DeltaShape, build_delta_cluster
from repro.faults.calibration import (
    CalibrationProfile,
    DelayModel,
    KernelRow,
    OffenderSkew,
    Transition,
    XidCalibration,
    _persistence,
)
from repro.faults.events import FaultTrace
from repro.faults.injector import FaultInjector, InjectorConfig
from repro.faults.xid import Xid

#: Demo observation window (days): long enough for windowed rules to have
#: headroom, short enough that flat-out replay takes a blink.
DEMO_WINDOW_DAYS = 2.0


def demo_cluster() -> ClusterInventory:
    """A 6-GPU-node miniature Delta (A40 pairs, A100 quads, one octet)."""
    return build_delta_cluster(
        DeltaShape(
            cpu_nodes=1, a40_x4_nodes=2, a100_x4_nodes=2,
            a100_x8_nodes=1, gh200_nodes=0,
        )
    )


def _calibration(
    xid: Xid,
    count: int,
    persistence_mean: float,
    persistence_p50: float,
    *,
    offenders: OffenderSkew | None = None,
) -> XidCalibration:
    return XidCalibration(
        xid=xid,
        count=count,
        persistence=_persistence(persistence_mean, persistence_p50),
        paper_mtbe_all_nodes_hours=float("nan"),
        paper_mtbe_per_node_hours=float("nan"),
        paper_persistence_mean=persistence_mean,
        paper_persistence_p50=persistence_p50,
        paper_persistence_p95=float("nan"),
        offenders=offenders,
    )


def demo_profile() -> CalibrationProfile:
    """Two compressed days of faults covering every default alert rule."""
    fast = DelayModel(6.0, 30.0)
    return CalibrationProfile(
        name="fleet-demo",
        window_days=DEMO_WINDOW_DAYS,
        reference_node_count=6,
        xids={
            # The bread-and-butter code: keeps the stream busy.
            Xid.MMU: _calibration(Xid.MMU, 24, 30.0, 12.0),
            # Rare hardware loss: the drain-node rule's trigger.
            Xid.FALLEN_OFF_BUS: _calibration(Xid.FALLEN_OFF_BUS, 3, 1.0, 0.5),
            # GSP timeouts recur on the same part via the kernel below, so
            # the repeated-reset rule sees clustered onsets.
            Xid.GSP: _calibration(Xid.GSP, 12, 45.0, 20.0),
            # DBE roots chain into RRE/RRF (retire-page audit rule).
            Xid.DBE: _calibration(Xid.DBE, 4, 20.0, 10.0),
            Xid.RRE: _calibration(Xid.RRE, 4, 15.0, 8.0),
            Xid.RRF: _calibration(Xid.RRF, 2, 15.0, 8.0),
            # One defective part spews uncontained errors in episodes
            # (replace-GPU rule) with a heavy persistence tail (the
            # Section-4.3 alarm + PAGE_SRE rule).
            Xid.UNCONTAINED: _calibration(
                Xid.UNCONTAINED, 40, 900.0, 120.0,
                offenders=OffenderSkew(
                    n_offenders=2, offender_share=0.9, top_share=0.8
                ),
            ),
        },
        kernel={
            Xid.GSP: KernelRow(
                Xid.GSP,
                transitions=(Transition(Xid.GSP, 0.8, DelayModel(60.0, 1_800.0)),),
                inoperable_prob=0.4,
            ),
            Xid.DBE: KernelRow(
                Xid.DBE,
                transitions=(Transition(Xid.RRE, 0.85, fast),),
            ),
            Xid.RRE: KernelRow(
                Xid.RRE,
                transitions=(Transition(Xid.RRF, 0.35, fast),),
            ),
            Xid.FALLEN_OFF_BUS: KernelRow(
                Xid.FALLEN_OFF_BUS, inoperable_prob=1.0
            ),
            Xid.UNCONTAINED: KernelRow(Xid.UNCONTAINED, inoperable_prob=0.2),
        },
        nvlink_switch_fault_incidents=0,
        nvlink_fanout=(),
    )


def demo_trace(seed: int = 11) -> FaultTrace:
    """Inject the demo profile onto the demo cluster."""
    injector = FaultInjector(
        demo_profile(),
        InjectorConfig(scale=1.0, seed=seed),
    )
    return injector.generate(demo_cluster())


def demo_counts(trace: FaultTrace) -> Dict[int, int]:
    """Ground-truth event counts by integer XID (for reports/tests)."""
    return {int(xid): count for xid, count in trace.counts_by_xid().items()}
