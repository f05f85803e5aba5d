"""Paper-figure builders: measured data in, SVG files out."""

from __future__ import annotations

import math
from pathlib import Path
from typing import Dict, List, Mapping, Sequence, Tuple

from repro.core.availability import AvailabilityAnalyzer
from repro.core.jobimpact import JobImpactAnalyzer
from repro.core.mtbe import ErrorStatistics
from repro.core.propagation import PropagationGraph
from repro.faults.xid import XID_CATALOG, Xid
from repro.viz.charts import bar_chart, cdf_chart, grouped_bar_chart, line_chart
from repro.viz.svg import PALETTE, SvgCanvas

#: The propagation figure leaves out edges rarer than this.
MIN_EDGE_PROBABILITY = 0.005


def _abbrev(xid: int) -> str:
    try:
        return XID_CATALOG[Xid(xid)].abbreviation
    except (KeyError, ValueError):
        return f"XID {xid}"


def mtbe_figure(stats: ErrorStatistics) -> SvgCanvas:
    """Table 1 as a chart: per-code error counts on a log axis."""
    rows = stats.table1_rows()
    return bar_chart(
        "GPU errors by XID (Table 1)",
        [f"{r.xid} {_abbrev(r.xid)}" for r in rows],
        [float(r.count) for r in rows],
        log_y=True,
        y_label="coalesced errors (log)",
        width=760,
    )


def elapsed_histogram_figure(impact: JobImpactAnalyzer) -> SvgCanvas:
    """Figure 9a: completed vs GPU-failed jobs per elapsed-time bin."""
    histogram = impact.elapsed_histogram()
    labels = [
        f"{int(lo)}-{int(hi)}m"
        for lo, hi in zip(histogram.edges_minutes, histogram.edges_minutes[1:])
    ]
    return grouped_bar_chart(
        "Jobs vs elapsed time (Figure 9a)",
        labels,
        [
            ("completed", [float(c) for c in histogram.completed]),
            ("GPU-failed", [float(c) for c in histogram.gpu_failed]),
        ],
        log_y=True,
        y_label="jobs (log)",
    )


def errors_vs_duration_figure(impact: JobImpactAnalyzer) -> SvgCanvas:
    """Figure 9b: mean errors encountered vs job duration."""
    series_data = impact.errors_vs_duration()
    series = [
        ("completed", [(x, y) for x, y in series_data["completed"]]),
        ("GPU-failed", [(x, y) for x, y in series_data["gpu_failed"]]),
    ]
    return line_chart(
        "GPU errors encountered vs job duration (Figure 9b)",
        series,
        x_label="job duration (minutes, bin midpoints)",
        y_label="mean errors encountered",
    )


def unavailability_cdf_figure(availability: AvailabilityAnalyzer) -> SvgCanvas:
    """Figure 9c: CDF of node unavailability durations."""
    durations = [e.duration_hours for e in availability.node_events]
    return cdf_chart(
        "Node unavailability after GPU failures (Figure 9c)",
        durations,
        x_label="repair duration (hours, log)",
        log_x=True,
        color=PALETTE[2],
    )


def overprovision_figure(
    sweep: Mapping[Tuple[float, float], float]
) -> SvgCanvas:
    """Section 5.4: overprovision vs recovery time, one line per availability."""
    by_availability: Dict[float, List[Tuple[float, float]]] = {}
    for (recovery, availability), fraction in sorted(sweep.items()):
        by_availability.setdefault(availability, []).append(
            (recovery, fraction * 100.0)
        )
    series = [
        (f"availability {availability*100:.2f}%", points)
        for availability, points in sorted(by_availability.items())
    ]
    return line_chart(
        "Required overprovisioning (Section 5.4)",
        series,
        x_label="recovery time (minutes)",
        y_label="overprovision (%)",
    )


def propagation_figure(
    graph: PropagationGraph,
    codes: Sequence[int] = (119, 122, 31, 79),
    *,
    title: str = "Intra-GPU hardware error propagation (Figure 5)",
) -> SvgCanvas:
    """A node-and-edge rendering of the measured propagation graph; edges
    below :data:`MIN_EDGE_PROBABILITY` are not drawn."""
    width, height = 720, 440
    canvas = SvgCanvas(width, height)
    canvas.text(width / 2, 24, title, size=14, anchor="middle", bold=True)

    present = [c for c in codes if graph.source_counts.get(int(c), 0) > 0]
    if not present:
        canvas.text(width / 2, height / 2, "no events", anchor="middle")
        return canvas
    cx, cy, radius = width / 2, height / 2 + 10, min(width, height) / 2 - 90
    positions: Dict[int, Tuple[float, float]] = {}
    for index, code in enumerate(present):
        angle = 2 * math.pi * index / len(present) - math.pi / 2
        positions[code] = (cx + radius * math.cos(angle), cy + radius * math.sin(angle))

    # Edges first (under the nodes).
    for (src, dst), stats in sorted(graph.intra_edges.items()):
        if src not in positions or dst not in positions:
            continue
        probability = graph.probability(src, dst)
        if probability < MIN_EDGE_PROBABILITY:
            continue
        x1, y1 = positions[src]
        x2, y2 = positions[dst]
        if src == dst:
            # Self-loop rendered as an annotation above the node.
            canvas.text(x1, y1 - 44, f"self {probability:.2f}", size=10,
                        anchor="middle", fill="#555555")
            continue
        # Shorten toward node edges.
        dx, dy = x2 - x1, y2 - y1
        length = math.hypot(dx, dy) or 1.0
        ux, uy = dx / length, dy / length
        start = (x1 + ux * 34, y1 + uy * 34)
        end = (x2 - ux * 34, y2 - uy * 34)
        canvas.arrow(start[0], start[1], end[0], end[1], stroke="#777777",
                     width=1.0 + 4.0 * probability)
        mx, my = (start[0] + end[0]) / 2, (start[1] + end[1]) / 2
        label = f"{probability:.2f}"
        delay = graph.mean_delay(src, dst)
        if delay == delay:  # not NaN
            label += f" ({delay:.1f}s)"
        canvas.text(mx, my - 6, label, size=10, anchor="middle", fill="#333333")

    for index, code in enumerate(present):
        x, y = positions[code]
        color = PALETTE[index % len(PALETTE)]
        canvas.circle(x, y, 30, fill=color)
        canvas.text(x, y - 2, str(code), size=12, anchor="middle",
                    fill="#ffffff", bold=True)
        canvas.text(x, y + 12, _abbrev(code)[:12], size=8, anchor="middle",
                    fill="#ffffff")
        terminal = graph.terminal_probability(code)
        canvas.text(x, y + 46, f"terminal {terminal:.2f}", size=9,
                    anchor="middle", fill="#555555")
    return canvas


def render_all_figures(
    *,
    stats: ErrorStatistics,
    impact: JobImpactAnalyzer,
    availability: AvailabilityAnalyzer,
    graph: PropagationGraph,
    sweep: Mapping[Tuple[float, float], float] | None = None,
    directory: str | Path = "figures",
) -> List[Path]:
    """Write every figure to ``directory``; returns the paths."""
    directory = Path(directory)
    written = [
        mtbe_figure(stats).save(directory / "table1_counts.svg"),
        elapsed_histogram_figure(impact).save(directory / "figure9a_elapsed.svg"),
        errors_vs_duration_figure(impact).save(directory / "figure9b_errors.svg"),
        unavailability_cdf_figure(availability).save(
            directory / "figure9c_unavailability.svg"
        ),
        propagation_figure(graph).save(directory / "figure5_hardware.svg"),
        propagation_figure(
            graph,
            codes=(48, 63, 64, 94, 95),
            title="Memory error recovery paths (Figure 7)",
        ).save(directory / "figure7_memory.svg"),
    ]
    if sweep:
        written.append(
            overprovision_figure(sweep).save(directory / "section54_overprovision.svg")
        )
    return written
