"""Chart builders on top of :class:`~repro.viz.svg.SvgCanvas`.

Every builder returns a finished :class:`SvgCanvas`; axis scaling supports
linear and log10 y-axes (error counts span five decades in Table 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.viz.svg import PALETTE, SvgCanvas

_MARGIN_LEFT = 70
_MARGIN_RIGHT = 20
_MARGIN_TOP = 40
_MARGIN_BOTTOM = 70
#: Canvas size of every chart but the grouped bar chart (720 x 420).
_WIDTH = 640
_HEIGHT = 400


@dataclass
class _Frame:
    canvas: SvgCanvas
    x0: float
    y0: float  # top of the plot area
    plot_width: float
    plot_height: float
    y_max: float
    log_y: bool

    def y_of(self, value: float) -> float:
        if self.log_y:
            value = max(value, 0.5)
            fraction = math.log10(value) / math.log10(max(self.y_max, 10.0))
        else:
            fraction = value / self.y_max if self.y_max else 0.0
        return self.y0 + self.plot_height * (1.0 - min(max(fraction, 0.0), 1.0))


def _frame(title: str, width: int, height: int, y_max: float, *,
           log_y: bool = False, y_label: str = "") -> _Frame:
    canvas = SvgCanvas(width, height)
    canvas.text(width / 2, 22, title, size=14, anchor="middle", bold=True)
    x0 = _MARGIN_LEFT
    y0 = _MARGIN_TOP
    plot_width = width - _MARGIN_LEFT - _MARGIN_RIGHT
    plot_height = height - _MARGIN_TOP - _MARGIN_BOTTOM
    frame = _Frame(canvas, x0, y0, plot_width, plot_height, y_max, log_y)
    # Axes.
    canvas.line(x0, y0, x0, y0 + plot_height)
    canvas.line(x0, y0 + plot_height, x0 + plot_width, y0 + plot_height)
    # Y ticks.
    ticks = _log_ticks(y_max) if log_y else _linear_ticks(y_max)
    for tick in ticks:
        y = frame.y_of(tick)
        canvas.line(x0 - 4, y, x0, y)
        canvas.line(x0, y, x0 + plot_width, y, stroke="#e6e6e6", width=0.6)
        canvas.text(x0 - 8, y + 4, _fmt(tick), size=10, anchor="end")
    if y_label:
        canvas.text(16, y0 + plot_height / 2, y_label, size=11,
                    anchor="middle", rotate=-90.0)
    return frame


def _linear_ticks(y_max: float) -> List[float]:
    if y_max <= 0:
        return [0.0]
    step = 10 ** math.floor(math.log10(y_max))
    if y_max / step < 2:
        step /= 5
    elif y_max / step < 5:
        step /= 2
    ticks = []
    value = 0.0
    while value <= y_max * 1.0001:
        ticks.append(value)
        value += step
    return ticks


def _log_ticks(y_max: float) -> List[float]:
    top = max(int(math.ceil(math.log10(max(y_max, 10.0)))), 1)
    return [10.0**d for d in range(0, top + 1)]


def _fmt(value: float) -> str:
    if value >= 1_000:
        return f"{value:,.0f}"
    if value == int(value):
        return f"{int(value)}"
    return f"{value:g}"


# ---------------------------------------------------------------------------


def bar_chart(
    title: str,
    labels: Sequence[str],
    values: Sequence[float],
    *,
    width: int = _WIDTH,
    log_y: bool = False,
    y_label: str = "",
) -> SvgCanvas:
    if len(labels) != len(values):
        raise ValueError("labels and values must align")
    y_max = max(values) if values else 1.0
    frame = _frame(title, width, _HEIGHT, y_max, log_y=log_y, y_label=y_label)
    n = max(len(values), 1)
    slot = frame.plot_width / n
    bar_width = slot * 0.65
    base = frame.y0 + frame.plot_height
    for i, (label, value) in enumerate(zip(labels, values)):
        x = frame.x0 + i * slot + (slot - bar_width) / 2
        y = frame.y_of(value)
        frame.canvas.rect(x, y, bar_width, base - y, fill=PALETTE[0],
                          title=f"{label}: {_fmt(value)}")
        frame.canvas.text(x + bar_width / 2, base + 14, label, size=10,
                          anchor="middle", rotate=30.0)
    return frame.canvas


def grouped_bar_chart(
    title: str,
    labels: Sequence[str],
    series: Sequence[Tuple[str, Sequence[float]]],
    *,
    log_y: bool = False,
    y_label: str = "",
) -> SvgCanvas:
    y_max = max((max(values) for _, values in series if len(values)), default=1.0)
    frame = _frame(title, 720, 420, y_max, log_y=log_y, y_label=y_label)
    n = max(len(labels), 1)
    slot = frame.plot_width / n
    group_width = slot * 0.7
    bar_width = group_width / max(len(series), 1)
    base = frame.y0 + frame.plot_height
    for s_index, (name, values) in enumerate(series):
        color = PALETTE[s_index % len(PALETTE)]
        for i, value in enumerate(values):
            x = frame.x0 + i * slot + (slot - group_width) / 2 + s_index * bar_width
            y = frame.y_of(value)
            frame.canvas.rect(x, y, bar_width * 0.92, base - y, fill=color,
                              title=f"{name} / {labels[i]}: {_fmt(value)}")
        # Legend.
        lx = frame.x0 + frame.plot_width - 150
        ly = frame.y0 + 14 + 16 * s_index
        frame.canvas.rect(lx, ly - 9, 10, 10, fill=color)
        frame.canvas.text(lx + 15, ly, name, size=11)
    for i, label in enumerate(labels):
        frame.canvas.text(frame.x0 + i * slot + slot / 2, base + 14, label,
                          size=10, anchor="middle", rotate=30.0)
    return frame.canvas


def cdf_chart(
    title: str,
    values: Sequence[float],
    *,
    x_label: str = "",
    log_x: bool = False,
    color: str = PALETTE[0],
) -> SvgCanvas:
    if not len(values):
        raise ValueError("cdf_chart needs at least one value")
    ordered = sorted(float(v) for v in values)
    canvas = SvgCanvas(_WIDTH, _HEIGHT)
    canvas.text(_WIDTH / 2, 22, title, size=14, anchor="middle", bold=True)
    x0, y0 = _MARGIN_LEFT, _MARGIN_TOP
    plot_width = _WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT
    plot_height = _HEIGHT - _MARGIN_TOP - _MARGIN_BOTTOM
    base = y0 + plot_height
    canvas.line(x0, y0, x0, base)
    canvas.line(x0, base, x0 + plot_width, base)

    lo, hi = ordered[0], ordered[-1]
    if log_x:
        lo = max(lo, hi / 1e6, 1e-6)

    def x_of(value: float) -> float:
        if hi == lo:
            return x0 + plot_width / 2
        if log_x:
            fraction = (math.log10(max(value, lo)) - math.log10(lo)) / (
                math.log10(hi) - math.log10(lo)
            )
        else:
            fraction = (value - lo) / (hi - lo)
        return x0 + plot_width * min(max(fraction, 0.0), 1.0)

    points = []
    n = len(ordered)
    for i, value in enumerate(ordered):
        points.append((x_of(value), base - plot_height * (i + 1) / n))
    canvas.polyline(points, stroke=color, width=1.8)

    for fraction in (0.0, 0.25, 0.5, 0.75, 1.0):
        y = base - plot_height * fraction
        canvas.line(x0 - 4, y, x0, y)
        canvas.text(x0 - 8, y + 4, f"{fraction:.2f}", size=10, anchor="end")
    for fraction in (0.0, 0.5, 1.0):
        value = lo + (hi - lo) * fraction if not log_x else lo * (hi / lo) ** fraction
        x = x_of(value)
        canvas.line(x, base, x, base + 4)
        canvas.text(x, base + 16, _fmt(value), size=10, anchor="middle")
    if x_label:
        canvas.text(x0 + plot_width / 2, _HEIGHT - 12, x_label, size=11,
                    anchor="middle")
    return canvas


def line_chart(
    title: str,
    series: Sequence[Tuple[str, Sequence[Tuple[float, float]]]],
    *,
    x_label: str = "",
    y_label: str = "",
) -> SvgCanvas:
    all_points = [p for _, points in series for p in points]
    if not all_points:
        raise ValueError("line_chart needs data")
    y_max = max(y for _, y in all_points) or 1.0
    x_lo = min(x for x, _ in all_points)
    x_hi = max(x for x, _ in all_points)
    frame = _frame(title, _WIDTH, _HEIGHT, y_max, y_label=y_label)
    base = frame.y0 + frame.plot_height

    def x_of(value: float) -> float:
        if x_hi == x_lo:
            return frame.x0 + frame.plot_width / 2
        return frame.x0 + frame.plot_width * (value - x_lo) / (x_hi - x_lo)

    for index, (name, points) in enumerate(series):
        color = PALETTE[index % len(PALETTE)]
        frame.canvas.polyline(
            [(x_of(x), frame.y_of(y)) for x, y in points], stroke=color, width=2.0
        )
        for x, y in points:
            frame.canvas.circle(x_of(x), frame.y_of(y), 3.0, fill=color)
        lx = frame.x0 + 12
        ly = frame.y0 + 14 + 16 * index
        frame.canvas.rect(lx, ly - 9, 10, 10, fill=color)
        frame.canvas.text(lx + 15, ly, name, size=11)
    for fraction in (0.0, 0.5, 1.0):
        value = x_lo + (x_hi - x_lo) * fraction
        x = x_of(value)
        frame.canvas.line(x, base, x, base + 4)
        frame.canvas.text(x, base + 16, _fmt(value), size=10, anchor="middle")
    if x_label:
        frame.canvas.text(frame.x0 + frame.plot_width / 2, _HEIGHT - 12, x_label,
                          size=11, anchor="middle")
    return frame.canvas
