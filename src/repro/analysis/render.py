"""Plain-text rendering of tables and series.

The benchmark harness prints the same rows/series the paper's figures
plot; these helpers keep that output aligned and readable in a terminal
and in the committed goldens under ``benchmarks/output/``.
"""

from __future__ import annotations

import math
from typing import Dict, List, Mapping, Optional, Sequence

__all__ = ["format_number", "render_table", "render_series_table"]


def format_number(value, precision: int = 3) -> str:
    """Format a number compactly (integers stay integers, NaN and ±inf stay readable)."""
    if value is None:
        return "-"
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, int):
        return str(value)
    try:
        as_float = float(value)
    except (TypeError, ValueError):
        return str(value)
    if as_float != as_float:  # NaN
        return "nan"
    if math.isinf(as_float):
        return "inf" if as_float > 0 else "-inf"
    if as_float == int(as_float) and abs(as_float) < 1e12:
        return str(int(as_float))
    if abs(as_float) >= 10000 or (abs(as_float) < 0.001 and as_float != 0):
        return f"{as_float:.{precision}g}"
    return f"{as_float:.{precision}f}"


def render_table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """Render an aligned, pipe-separated table (markdown-compatible)."""
    header_cells = [str(header) for header in headers]
    body = [[format_number(cell) if not isinstance(cell, str) else cell for cell in row] for row in rows]
    widths = [len(cell) for cell in header_cells]
    for row in body:
        if len(row) != len(header_cells):
            raise ValueError("row length does not match header length")
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = []
    lines.append(" | ".join(cell.ljust(widths[index]) for index, cell in enumerate(header_cells)))
    lines.append("-|-".join("-" * width for width in widths))
    for row in body:
        lines.append(" | ".join(cell.ljust(widths[index]) for index, cell in enumerate(row)))
    return "\n".join(lines)


def render_series_table(
    x_label: str,
    x_values: Sequence[object],
    series: Mapping[str, Sequence[object]],
    *,
    every: int = 1,
) -> str:
    """Render aligned series (one column per named series) against an x column.

    ``every`` keeps only every n-th row, which keeps long per-round series
    readable while preserving the curve's shape (the final row is always
    kept).
    """
    if every < 1:
        raise ValueError("every must be >= 1")
    names = list(series)
    length = len(list(x_values))
    for name in names:
        if len(list(series[name])) != length:
            raise ValueError(f"series {name!r} length does not match the x axis")
    headers = [x_label] + names
    rows: List[List[object]] = []
    x_list = list(x_values)
    for index in range(length):
        is_last = index == length - 1
        if index % every != 0 and not is_last:
            continue
        row: List[object] = [x_list[index]]
        for name in names:
            row.append(list(series[name])[index])
        rows.append(row)
    return render_table(headers, rows)
