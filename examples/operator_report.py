#!/usr/bin/env python3
"""A complete operator post-mortem report for one observation window.

Combines the secondary analyses into the document an SRE team would
actually circulate after a review period: concentration (who to replace),
the generational context, and the projected capacity cost.

Usage::

    python examples/operator_report.py [scale] [seed]
"""

import sys

from repro import DeltaStudy, synthesize_delta
from repro.core import (
    GenerationComparison,
    OverprovisionConfig,
    SpatialAnalyzer,
    required_overprovision_analytic,
)
from repro.core.report import generations_result, spatial_result


def main() -> None:
    scale = float(sys.argv[1]) if len(sys.argv) > 1 else 0.1
    seed = int(sys.argv[2]) if len(sys.argv) > 2 else 7

    print(f"Building the window (scale={scale}, seed={seed})...\n")
    dataset = synthesize_delta(scale=scale, seed=seed)
    study = DeltaStudy.from_dataset(dataset)
    stats = study.error_statistics()
    errors = stats.errors

    print("=" * 74)
    print("GPU FLEET POST-MORTEM")
    print("=" * 74)

    # 1. Who to replace.
    print("\n1. " + spatial_result(SpatialAnalyzer(errors, n_gpus=848)).render_text())
    offenders = SpatialAnalyzer(errors, n_gpus=848).offenders(95)
    for offender in offenders[:3]:
        print(
            f"   replace {offender.gpu[0]} {offender.gpu[1]}: "
            f"{offender.count:,} uncontained errors "
            f"(P(chance) < 1e-{offender.surprise:.0f})"
        )

    # 2. Generational context.
    print("\n2. " + generations_result(
        GenerationComparison(stats, study.propagation())
    ).render_text())

    # 3. Capacity cost.
    availability = study.availability().report().availability
    fraction = required_overprovision_analytic(
        OverprovisionConfig(availability=max(0.99, min(availability, 0.9999)))
    )
    print(
        f"\n3. At the measured {availability*100:.2f}% node availability, an "
        f"800-GPU month-long job needs ~{fraction*100:.0f}% spare capacity "
        f"({fraction*800:.0f} GPUs) at a 40-minute recovery time."
    )


if __name__ == "__main__":
    main()
