"""Fixed-width ASCII tables, shared by the harness and telemetry reports.

Kept below both packages so a telemetry report can render a table
without importing the harness (and with it every workload and figure
driver).
"""

from __future__ import annotations

from typing import Sequence


def format_table(headers: Sequence[str], rows: Sequence[Sequence[object]],
                 title: str = "") -> str:
    """Render an ASCII table with right-aligned numeric columns."""
    rendered = [[format_cell(v) for v in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rendered:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(widths[i])
                           for i, h in enumerate(headers)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rendered:
        lines.append("  ".join(cell.rjust(widths[i])
                               if _is_numeric(cell) else cell.ljust(widths[i])
                               for i, cell in enumerate(row)))
    return "\n".join(lines)


def format_cell(value: object) -> str:
    """One table cell: floats at a precision suited to their magnitude."""
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        if abs(value) < 0.01:
            return f"{value:.2e}"
        return f"{value:.3f}"
    return str(value)


def _is_numeric(cell: str) -> bool:
    stripped = cell.replace(",", "").replace("e", "").replace("-", "") \
        .replace("+", "").replace(".", "")
    return stripped.isdigit()
