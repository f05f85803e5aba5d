"""Minimal ASCII table rendering for paper-style report output.

The report renderers print the same rows the paper's tables report; this
module renders them as aligned monospace tables without any third-party
dependency.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence


def format_cell(value: object, precision: int = 2) -> str:
    """Format a table cell: floats get fixed precision, ints get separators."""
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, int):
        return f"{value:,}"
    if isinstance(value, float):
        if value != value:  # NaN
            return "-"
        if abs(value) >= 10000:
            return f"{value:,.1f}"
        return f"{value:.{precision}f}"
    return str(value)


@dataclass
class Table:
    """An aligned ASCII table with a title, headers, and typed rows."""

    title: str
    headers: Sequence[str]
    rows: List[List[object]] = field(default_factory=list)
    precision: int = 2

    def add_row(self, *cells: object) -> None:
        if len(cells) != len(self.headers):
            raise ValueError(
                f"row has {len(cells)} cells but table has {len(self.headers)} columns"
            )
        self.rows.append(list(cells))

    def render(self) -> str:
        cells = [[format_cell(c, self.precision) for c in row] for row in self.rows]
        widths = [len(h) for h in self.headers]
        for row in cells:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))

        def fmt_line(parts: Sequence[str]) -> str:
            return "| " + " | ".join(p.ljust(w) for p, w in zip(parts, widths)) + " |"

        sep = "+-" + "-+-".join("-" * w for w in widths) + "-+"
        lines = [self.title, sep, fmt_line(list(self.headers)), sep]
        lines.extend(fmt_line(row) for row in cells)
        lines.append(sep)
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.render()
