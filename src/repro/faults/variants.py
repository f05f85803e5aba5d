"""Calibration-profile variants: generative what-if studies.

Section 5.5's counterfactual removes observed errors *after the fact*.
A stronger check re-synthesizes the world under a modified generative
model — GSP errors 10x rarer, no defective parts shipped, NVLink hardened —
and re-measures everything through the unchanged pipeline.  When the
analytic (exclusion-based) and generative (re-synthesis) counterfactuals
agree, the exclusion arithmetic the paper relies on is validated.

``profile_variant`` builds modified profiles without touching the frozen
originals.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Mapping

from repro.faults.calibration import CalibrationProfile, XidCalibration
from repro.faults.xid import Xid


def profile_variant(
    profile: CalibrationProfile,
    *,
    name_suffix: str = "variant",
    count_scales: Mapping[Xid, float] | None = None,
    drop_xids: Mapping[Xid, bool] | None = None,
    remove_offenders: bool = False,
) -> CalibrationProfile:
    """A modified copy of a calibration profile.

    ``count_scales`` multiplies per-code totals (e.g. ``{Xid.GSP: 0.1}``
    models a firmware fix); ``drop_xids`` removes codes entirely;
    ``remove_offenders`` deletes defective-GPU skew, spreading each code's
    (unchanged) volume uniformly — the "comprehensive burn-in testing"
    scenario, generatively.
    """
    count_scales = dict(count_scales or {})
    drop = {xid for xid, flag in (drop_xids or {}).items() if flag}

    new_xids: Dict[Xid, XidCalibration] = {}
    for xid, calibration in profile.xids.items():
        if xid in drop:
            continue
        updated = calibration
        scale = count_scales.get(xid)
        if scale is not None:
            if scale < 0:
                raise ValueError(f"count scale for {xid!r} must be non-negative")
            updated = replace(updated, count=int(round(updated.count * scale)))
        if remove_offenders and updated.offenders is not None:
            updated = replace(updated, offenders=None)
        if updated.count > 0:
            new_xids[xid] = updated

    # Prune kernel rows of removed codes AND transitions into them (a chain
    # must never materialize an event the profile cannot parameterize).
    new_kernel = {}
    for xid, row in profile.kernel.items():
        if xid not in new_xids:
            continue
        kept = tuple(t for t in row.transitions if t.target in new_xids)
        new_kernel[xid] = replace(row, transitions=kept) if (
            len(kept) != len(row.transitions)
        ) else row
    return replace(
        profile,
        name=f"{profile.name}-{name_suffix}",
        xids=new_xids,
        kernel=new_kernel,
    )


def burned_in_profile(profile: CalibrationProfile) -> CalibrationProfile:
    """Section 5.5 scenario 1, generatively: defective parts never shipped.

    Offender-concentrated volume disappears with the parts: each skewed
    code keeps only its non-offender share (plus chain inflow).
    """
    count_scales: Dict[Xid, float] = {}
    for xid, calibration in profile.xids.items():
        if calibration.offenders is None:
            continue
        share_of_total = calibration.offenders.offender_share
        if xid is Xid.MMU:
            # MMU offender skew applies only to the injector's hardware
            # portion; the workload-emitted share is not part-bound.
            share_of_total *= 1.0 - profile.mmu_from_workload_fraction
        count_scales[xid] = 1.0 - share_of_total
    return profile_variant(
        profile,
        name_suffix="burned-in",
        count_scales=count_scales,
        remove_offenders=True,
    )

