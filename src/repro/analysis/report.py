"""Plain-text table rendering for benchmark harness output.

Every benchmark prints the rows/series of the paper table or figure it
reproduces; this module renders them uniformly so EXPERIMENTS.md can be
assembled by copy-paste from bench output.
"""

from __future__ import annotations

from typing import List, Sequence


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: str = "",
) -> str:
    """Render an aligned monospace table."""
    columns = len(headers)
    for row in rows:
        if len(row) != columns:
            raise ValueError(f"row {row!r} has {len(row)} cells, expected {columns}")
    cells: List[List[str]] = [[_fmt(value) for value in row] for row in rows]
    widths = [
        max(len(headers[col]), *(len(row[col]) for row in cells)) if cells else len(headers[col])
        for col in range(columns)
    ]
    lines: List[str] = []
    if title:
        lines.append(title)
        lines.append("=" * len(title))
    lines.append("  ".join(header.ljust(widths[i]) for i, header in enumerate(headers)))
    lines.append("  ".join("-" * width for width in widths))
    for row in cells:
        lines.append("  ".join(row[i].ljust(widths[i]) for i in range(columns)))
    return "\n".join(lines)


def _fmt(value: object) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        if abs(value) >= 10:
            return f"{value:.1f}"
        return f"{value:.3f}"
    return str(value)


def format_series(name: str, values: Sequence[float], per_line: int = 10) -> str:
    """Render a numeric series (an s-curve, a sweep) compactly."""
    lines = [f"{name} ({len(values)} points):"]
    chunk: List[str] = []
    for index, value in enumerate(values):
        chunk.append(_fmt(float(value)))
        if len(chunk) == per_line or index == len(values) - 1:
            lines.append("  " + "  ".join(chunk))
            chunk = []
    return "\n".join(lines)
