"""Paper-fidelity verification: tolerance-gated paper-vs-measured checks.

Every metric that carries a :class:`PaperExpectation` becomes one check:
the measured value must land inside the expectation's tolerance band
(optionally widened by ``tolerance_scale`` for small-scale smoke runs).
Checks whose metric's ``support`` — the sample count the value was
estimated from — falls below ``min_support`` are *skipped* rather than
failed: at small window scales, rare codes (DBE, RRF, PMU SPI) produce a
handful of events and their branch probabilities are pure noise.

``repro-delta verify`` drives this over the registered experiments and
exits non-zero when any check fails.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, List, Optional

from repro.results.artifact import ExperimentResult
from repro.util.tables import Table

#: Below this many supporting samples a tolerance check is meaningless.
DEFAULT_MIN_SUPPORT = 10

PASS = "pass"
FAIL = "fail"
SKIP = "skip"


@dataclass(frozen=True)
class Check:
    """One paper-vs-measured comparison."""

    experiment_id: str
    metric: str
    measured: float
    expected: float
    lower: Optional[float]
    upper: Optional[float]
    status: str
    support: Optional[int] = None
    reason: str = ""

    @property
    def band(self) -> str:
        lo = "-inf" if self.lower is None else f"{self.lower:g}"
        hi = "+inf" if self.upper is None else f"{self.upper:g}"
        return f"[{lo}, {hi}]"


@dataclass
class VerificationReport:
    """All checks from one verify run."""

    checks: List[Check] = field(default_factory=list)
    tolerance_scale: float = 1.0
    min_support: int = DEFAULT_MIN_SUPPORT

    @property
    def n_pass(self) -> int:
        return sum(1 for c in self.checks if c.status == PASS)

    @property
    def n_fail(self) -> int:
        return sum(1 for c in self.checks if c.status == FAIL)

    @property
    def n_skip(self) -> int:
        return sum(1 for c in self.checks if c.status == SKIP)

    @property
    def ok(self) -> bool:
        return self.n_fail == 0

    def extend(self, checks: Iterable[Check]) -> None:
        self.checks.extend(checks)

    def render_table(self) -> str:
        table = Table(
            "Paper-fidelity verification (measured vs paper tolerance bands)",
            ["Experiment", "Metric", "Measured", "Paper", "Band", "Support",
             "Status"],
            precision=3,
        )
        for check in self.checks:
            table.add_row(
                check.experiment_id,
                check.metric,
                check.measured,
                check.expected,
                check.band,
                "-" if check.support is None else check.support,
                check.status + (f" ({check.reason})" if check.reason else ""),
            )
        summary = (
            f"\n{self.n_pass} passed, {self.n_fail} failed, "
            f"{self.n_skip} skipped (support < {self.min_support})"
            f"  [tolerance x{self.tolerance_scale:g}]"
        )
        return table.render() + summary


def verify_result(
    result: ExperimentResult,
    *,
    tolerance_scale: float = 1.0,
    min_support: int = DEFAULT_MIN_SUPPORT,
) -> List[Check]:
    """Check every expectation-annotated metric of one result."""
    checks: List[Check] = []
    for metric in result.expected_metrics():
        expectation = metric.expectation
        assert expectation is not None
        measured = metric.numeric
        lower, upper = expectation.tolerance.bounds(
            expectation.value, relax=tolerance_scale
        )
        if metric.support is not None and metric.support < min_support:
            status, reason = SKIP, f"support {metric.support} < {min_support}"
        elif math.isnan(measured):
            status, reason = FAIL, "measured value is NaN"
        elif (lower is not None and measured < lower) or (
            upper is not None and measured > upper
        ):
            status, reason = FAIL, ""
        else:
            status, reason = PASS, ""
        checks.append(
            Check(
                experiment_id=result.experiment_id,
                metric=metric.name,
                measured=measured,
                expected=expectation.value,
                lower=lower,
                upper=upper,
                status=status,
                support=metric.support,
                reason=reason,
            )
        )
    return checks


def verify_results(
    results: Iterable[ExperimentResult],
    *,
    tolerance_scale: float = 1.0,
    min_support: int = DEFAULT_MIN_SUPPORT,
) -> VerificationReport:
    """Aggregate checks over many results into one report."""
    report = VerificationReport(
        tolerance_scale=tolerance_scale, min_support=min_support
    )
    for result in results:
        report.extend(
            verify_result(
                result,
                tolerance_scale=tolerance_scale,
                min_support=min_support,
            )
        )
    return report
