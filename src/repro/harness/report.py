"""Plain-text table and series rendering for experiment reports.

The harness prints the same rows/series the paper's figures plot; these
helpers keep the formatting consistent (fixed-width ASCII tables that read
well in a terminal and diff cleanly in EXPERIMENTS.md).
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.common.table import format_cell, format_table

__all__ = ["format_table", "format_relative", "format_rel_stddev",
           "format_series", "line_chart", "bar_chart"]


def format_relative(value: Optional[float]) -> str:
    """Render an abort count relative to the 2PL baseline (Figure 7)."""
    if value is None:
        return "n/a"
    if value == 0:
        return "0"
    if value < 0.001:
        return f"{value:.1e}"
    return f"{value:.3f}"


def format_rel_stddev(value: Optional[float]) -> str:
    """Render a relative stddev as a percentage (the paper claims <5%)."""
    if value is None:
        return "n/a"
    return f"{100.0 * value:.1f}%"


def format_series(label: str, xs: Sequence[int], ys: Sequence[float],
                  stddev: Optional[Sequence[float]] = None) -> str:
    """Render one figure series as ``label: x=y, x=y, ...``.

    With ``stddev`` (per-point relative stddevs), appends the series'
    worst seed noise as ``(max sd x.x%)`` so the paper's <5% protocol
    claim is visible in every table.
    """
    points = ", ".join(f"{x}={format_cell(float(y))}"
                       for x, y in zip(xs, ys))
    suffix = ""
    if stddev:
        suffix = f"  (max sd {format_rel_stddev(max(stddev))})"
    return f"{label}: {points}{suffix}"


def line_chart(series: Dict[str, Sequence[float]], xs: Sequence[int],
               width: int = 64, height: int = 12, title: str = "") -> str:
    """ASCII line chart: one mark per series (Figure 8's speedup curves).

    ``series`` maps a label to y-values aligned with ``xs``.  Each series
    is drawn with the first letter of its label; collisions show ``*``.
    """
    lines = [title] if title else []
    all_values = [v for ys in series.values() for v in ys]
    if not all_values or not xs:
        lines.append("(no data)")
        return "\n".join(lines)
    top = max(all_values) or 1.0
    grid = [[" "] * width for _ in range(height)]
    columns = [int(i * (width - 1) / max(1, len(xs) - 1))
               for i in range(len(xs))]
    for label, ys in series.items():
        mark = label[0] if label else "?"
        for column, value in zip(columns, ys):
            row = height - 1 - int((value / top) * (height - 1))
            row = min(height - 1, max(0, row))
            cell = grid[row][column]
            grid[row][column] = mark if cell == " " else "*"
    for row_index, row in enumerate(grid):
        value_at = top * (height - 1 - row_index) / (height - 1)
        lines.append(f"{value_at:6.1f} |{''.join(row)}")
    axis = [" "] * width
    for column, x in zip(columns, xs):
        text = str(x)
        for offset, ch in enumerate(text):
            if column + offset < width:
                axis[column + offset] = ch
    lines.append("       +" + "-" * width)
    lines.append("        " + "".join(axis))
    legend = "  ".join(f"{label[0]}={label}" for label in series)
    lines.append("        " + legend)
    return "\n".join(lines)


def bar_chart(items: Dict[str, float], width: int = 40,
              title: str = "") -> str:
    """ASCII horizontal bar chart (for Figure 1's percentage bars)."""
    lines = [title] if title else []
    top = max(items.values(), default=1.0) or 1.0
    label_width = max((len(k) for k in items), default=0)
    for key, value in items.items():
        bar = "#" * int(round(width * value / top))
        lines.append(f"{key.ljust(label_width)} |{bar} {value:.1f}")
    return "\n".join(lines)
