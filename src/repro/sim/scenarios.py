"""Named what-if scenarios: a profile plus a job, ready to sweep.

Presets pair the two calibrated fleets (855-day Ampere, 240-day Hopper)
with representative long-training jobs, plus the paper's Section 5.5
counterfactuals rebuilt generatively:

* ``a100-512-no-xid79`` — the "no fallen-off-the-bus" world: Xid 79 is
  removed from the generative model (not just excluded after the fact);
* ``a100-512-burned-in`` — defective parts never shipped: offender skew
  deleted and the offender-bound volume with it.

A scenario fixes profile + job; the *policy* stays a free axis so sweeps
can compare recovery strategies within a scenario.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

from repro.faults.calibration import (
    AMPERE_CALIBRATION,
    H100_CALIBRATION,
    CalibrationProfile,
)
from repro.faults.variants import burned_in_profile, profile_variant
from repro.faults.xid import Xid
from repro.sim.engine import SimulationConfig, TrainingJobConfig
from repro.sim.policies import RecoveryPolicy, parse_policy


@dataclass(frozen=True)
class Scenario:
    """A preset: who trains what, on which measured (or altered) fleet."""

    name: str
    description: str
    #: Thunk, not a profile: variants are built lazily so importing this
    #: module never pays for counterfactual reconstruction.
    profile_factory: Callable[[], CalibrationProfile] = field(repr=False)
    job: TrainingJobConfig = TrainingJobConfig()

    def config(
        self,
        policy: RecoveryPolicy,
        *,
        n_gpus: Optional[int] = None,
        useful_hours: Optional[float] = None,
    ) -> SimulationConfig:
        """Materialize a runnable config (optionally overriding the job)."""
        job = self.job
        if n_gpus is not None or useful_hours is not None:
            from dataclasses import replace

            job = replace(
                job,
                **{
                    k: v
                    for k, v in (
                        ("n_gpus", n_gpus),
                        ("useful_hours", useful_hours),
                    )
                    if v is not None
                },
            )
        return SimulationConfig(
            profile=self.profile_factory(),
            job=job,
            policy=policy,
        )


def _no_xid79_ampere() -> CalibrationProfile:
    return profile_variant(
        AMPERE_CALIBRATION,
        name_suffix="no-xid79",
        drop_xids={Xid.FALLEN_OFF_BUS: True},
    )


def _burned_in_ampere() -> CalibrationProfile:
    return burned_in_profile(AMPERE_CALIBRATION)


SCENARIOS: Dict[str, Scenario] = {
    scenario.name: scenario
    for scenario in (
        Scenario(
            name="a100-512",
            description="512-GPU month-long pretrain on the Ampere fleet",
            profile_factory=lambda: AMPERE_CALIBRATION,
            job=TrainingJobConfig(n_gpus=512, useful_hours=720.0, partition="a100"),
        ),
        Scenario(
            name="a100-256",
            description="256-GPU two-week pretrain on the Ampere fleet",
            profile_factory=lambda: AMPERE_CALIBRATION,
            job=TrainingJobConfig(n_gpus=256, useful_hours=336.0, partition="a100"),
        ),
        Scenario(
            name="h100-256",
            description="256-GPU two-week pretrain on the Hopper fleet",
            profile_factory=lambda: H100_CALIBRATION,
            job=TrainingJobConfig(n_gpus=256, useful_hours=336.0, partition="h100"),
        ),
        Scenario(
            name="h100-512",
            description="512-GPU month-long pretrain on the Hopper fleet",
            profile_factory=lambda: H100_CALIBRATION,
            job=TrainingJobConfig(n_gpus=512, useful_hours=720.0, partition="h100"),
        ),
        Scenario(
            name="a100-512-no-xid79",
            description=(
                "Counterfactual: Ampere fleet with Xid 79 (fallen off the "
                "bus) removed from the generative model"
            ),
            profile_factory=_no_xid79_ampere,
            job=TrainingJobConfig(n_gpus=512, useful_hours=720.0, partition="a100"),
        ),
        Scenario(
            name="a100-512-burned-in",
            description=(
                "Counterfactual: Ampere fleet where burn-in caught every "
                "defective part (offender skew removed, volume with it)"
            ),
            profile_factory=_burned_in_ampere,
            job=TrainingJobConfig(n_gpus=512, useful_hours=720.0, partition="a100"),
        ),
    )
}


def list_scenarios() -> Tuple[Tuple[str, str], ...]:
    """(name, description) pairs, in registration order."""
    return tuple((s.name, s.description) for s in SCENARIOS.values())


def build_scenario(
    name: str,
    policy: "RecoveryPolicy | str",
    *,
    n_gpus: Optional[int] = None,
    useful_hours: Optional[float] = None,
) -> SimulationConfig:
    """Resolve a scenario name + policy (object or spec) into a config."""
    try:
        scenario = SCENARIOS[name]
    except KeyError:
        known = ", ".join(sorted(SCENARIOS))
        raise ValueError(f"unknown scenario {name!r}; known: {known}") from None
    if isinstance(policy, str):
        policy = parse_policy(policy)
    return scenario.config(policy, n_gpus=n_gpus, useful_hours=useful_hours)
