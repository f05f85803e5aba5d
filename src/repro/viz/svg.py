"""A minimal SVG canvas: shapes, text, and axis helpers.

Produces clean standalone ``.svg`` documents; all coordinates are in user
units with the origin at the top-left (SVG convention).  The chart layer
(:mod:`repro.viz.charts`) handles data-to-pixel mapping.
"""

from __future__ import annotations

import html
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Sequence, Tuple

#: A small colorbrewer-style palette used across charts.
PALETTE = (
    "#4e79a7", "#f28e2b", "#e15759", "#76b7b2", "#59a14f",
    "#edc948", "#b07aa1", "#ff9da7", "#9c755f", "#bab0ac",
)


@dataclass
class SvgCanvas:
    width: int
    height: int
    background: str = "#ffffff"
    _elements: List[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.width <= 0 or self.height <= 0:
            raise ValueError("canvas dimensions must be positive")

    # -- primitives --------------------------------------------------------

    def rect(self, x: float, y: float, w: float, h: float, *, fill: str,
             title: str = "") -> None:
        tooltip = f"<title>{html.escape(title)}</title>" if title else ""
        self._elements.append(
            f'<rect x="{x:.2f}" y="{y:.2f}" width="{w:.2f}" height="{h:.2f}" '
            f'fill="{fill}" stroke="none" opacity="1.0">{tooltip}</rect>'
            if title
            else f'<rect x="{x:.2f}" y="{y:.2f}" width="{w:.2f}" height="{h:.2f}" '
            f'fill="{fill}" stroke="none" opacity="1.0"/>'
        )

    def line(self, x1: float, y1: float, x2: float, y2: float, *,
             stroke: str = "#333333", width: float = 1.0) -> None:
        self._elements.append(
            f'<line x1="{x1:.2f}" y1="{y1:.2f}" x2="{x2:.2f}" y2="{y2:.2f}" '
            f'stroke="{stroke}" stroke-width="{width}"/>'
        )

    def polyline(self, points: Sequence[Tuple[float, float]], *,
                 stroke: str, width: float = 1.5) -> None:
        path = " ".join(f"{x:.2f},{y:.2f}" for x, y in points)
        self._elements.append(
            f'<polyline points="{path}" fill="none" stroke="{stroke}" '
            f'stroke-width="{width}"/>'
        )

    def circle(self, cx: float, cy: float, r: float, *, fill: str) -> None:
        self._elements.append(
            f'<circle cx="{cx:.2f}" cy="{cy:.2f}" r="{r:.2f}" fill="{fill}"/>'
        )

    def text(self, x: float, y: float, content: str, *, size: int = 12,
             anchor: str = "start", fill: str = "#222222",
             rotate: float | None = None, bold: bool = False) -> None:
        weight = ' font-weight="bold"' if bold else ""
        transform = (
            f' transform="rotate({rotate:.1f} {x:.2f} {y:.2f})"'
            if rotate is not None
            else ""
        )
        self._elements.append(
            f'<text x="{x:.2f}" y="{y:.2f}" font-size="{size}" '
            f'font-family="Helvetica, Arial, sans-serif" text-anchor="{anchor}" '
            f'fill="{fill}"{weight}{transform}>{html.escape(content)}</text>'
        )

    def arrow(self, x1: float, y1: float, x2: float, y2: float, *,
              stroke: str = "#555555", width: float = 1.4) -> None:
        """A line with an arrowhead at (x2, y2)."""
        self.line(x1, y1, x2, y2, stroke=stroke, width=width)
        # Arrowhead: two short strokes at ~25 degrees back from the tip.
        import math

        angle = math.atan2(y2 - y1, x2 - x1)
        size = 7.0
        for offset in (math.radians(155), math.radians(-155)):
            self.line(
                x2,
                y2,
                x2 + size * math.cos(angle + offset),
                y2 + size * math.sin(angle + offset),
                stroke=stroke,
                width=width,
            )

    # -- document ----------------------------------------------------------

    def render(self) -> str:
        body = "\n  ".join(self._elements)
        return (
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{self.width}" '
            f'height="{self.height}" viewBox="0 0 {self.width} {self.height}">\n'
            f'  <rect width="{self.width}" height="{self.height}" '
            f'fill="{self.background}"/>\n'
            f"  {body}\n</svg>\n"
        )

    def save(self, path: str | Path) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.render(), encoding="utf-8")
        return path
