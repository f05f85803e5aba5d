#!/usr/bin/env python3
"""Full paper reproduction: every table and figure, paper vs measured.

At ``--scale 1.0`` this regenerates the complete 855-day / 206-node Ampere
dataset (~63k coalesced errors, ~1.4M jobs, ~10M raw log lines) plus the
H100 early-deployment dataset, runs the whole pipeline, and prints each of
the paper's tables and figures with the published values alongside.  Takes
a few minutes and ~4 GB of RAM at full scale; use ``--scale 0.1`` for a
half-minute run.

The captured full-scale output of this script is the basis of
EXPERIMENTS.md.

Usage::

    python examples/full_reproduction.py [--scale 1.0] [--seed 7]
"""

import argparse
import time

from repro import DeltaStudy, H100Analyzer, synthesize_delta, synthesize_h100
from repro.core import OverprovisionConfig, OverprovisionSimulator
from repro.core.report import (
    counterfactual_result,
    figure5_result,
    figure6_result,
    figure7_result,
    figure9_result,
    overprovision_result,
    table1_result,
    table2_result,
    table3_result,
)
from repro.faults import AMPERE_CALIBRATION


def banner(title: str) -> None:
    print()
    print("=" * 78)
    print(title)
    print("=" * 78)


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()

    t0 = time.time()
    banner(f"Synthesizing the Ampere dataset (scale={args.scale})")
    dataset = synthesize_delta(scale=args.scale, seed=args.seed)
    print(
        f"ground truth: {len(dataset.trace):,} errors, {len(dataset.slurm_db):,} jobs "
        f"({time.time() - t0:.1f}s)"
    )
    if dataset.schedule is not None:
        print(f"workload utilization: {dataset.schedule.utilization()*100:.1f}% "
              "(paper: A40 ~40%, A100 ~51%)")

    t0 = time.time()
    study = DeltaStudy.from_dataset(dataset)
    n_errors = len(study.errors)
    print(f"pipeline Stage I+II: {n_errors:,} coalesced errors ({time.time() - t0:.1f}s)")

    stats = study.error_statistics()
    impact = study.job_impact()
    availability = study.availability()
    propagation = study.propagation()

    banner("Table 1 - GPU error statistics")
    print(table1_result(stats, AMPERE_CALIBRATION, scale=args.scale).render_text())

    banner("Figures 5-7 - error propagation")
    print(figure5_result(propagation).render_text())
    print()
    print(figure6_result(propagation).render_text())
    print()
    print(figure7_result(propagation).render_text())

    banner("Table 2 - job failure probability per XID")
    print(table2_result(impact).render_text())

    banner("Table 3 - job distribution")
    print(table3_result(impact).render_text())

    banner("Figure 9 - job impact and availability")
    print(figure9_result(impact, availability).render_text())

    banner("Section 5.4 - overprovisioning projection")
    simulator = OverprovisionSimulator(OverprovisionConfig(seed=args.seed))
    print(overprovision_result(simulator.sweep(
        recovery_minutes=(5.0, 10.0, 20.0, 40.0),
        availabilities=(0.995, 0.9987),
    )).render_text())

    banner("Section 5.5 - counterfactual improvements")
    print(counterfactual_result(study.counterfactual().analyze()).render_text())

    banner("Section 6 - emerging H100 errors")
    h100 = synthesize_h100(seed=args.seed)
    h100_stats = DeltaStudy.from_dataset(h100).error_statistics()
    report = H100Analyzer(h100_stats).report()
    print(f"counts: {report.counts}")
    print("        (paper: 18 MMU, 10 DBE, 5 RRF, 9 contained, 70 XID-136)")
    print(f"MTBE  : {report.mtbe_node_hours:,.0f} node-hours (paper 4,114)")
    print(f"DBE/RRF-without-RRE anomaly: {report.has_remap_anomaly} (paper: present)")


if __name__ == "__main__":
    main()
