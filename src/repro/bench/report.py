"""ASCII table rendering for benchmark results."""

from __future__ import annotations

from typing import Iterable, Sequence


def format_table(
    headers: Sequence[str], rows: Iterable[Sequence], title: str = ""
) -> str:
    """Render a plain-text table with right-aligned numeric cells."""
    rendered_rows = [
        [_format_cell(cell) for cell in row] for row in rows
    ]
    widths = [len(h) for h in headers]
    for row in rendered_rows:
        if len(row) != len(headers):
            raise ValueError(
                f"row has {len(row)} cells but table has {len(headers)} columns"
            )
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rendered_rows:
        lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def fmt(value, precision: int = 1) -> str:
    """Format one report cell: ``-`` for a missing value, floats to
    ``precision`` decimals."""
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.{precision}f}"
    return str(value)


def _format_cell(cell) -> str:
    if isinstance(cell, float):
        if cell == 0:
            return "0"
        if abs(cell) >= 1000:
            return f"{cell:,.0f}"
        return f"{cell:.3g}" if abs(cell) < 10 else f"{cell:.1f}"
    return str(cell)


def format_bar_groups(
    groups: dict[str, dict[str, float]], width: int = 40, title: str = ""
) -> str:
    """Horizontal bar chart of normalized groups (Figure-5-style).

    ``groups`` maps a group label (e.g. "r=4") to label->value bars in
    [0, 1].
    """
    lines = [title] if title else []
    for group, bars in groups.items():
        lines.append(f"{group}:")
        for label, value in bars.items():
            if not 0 <= value <= 1.0 + 1e-9:
                raise ValueError(
                    f"bar {group}/{label} value {value} outside [0, 1]"
                )
            filled = int(round(value * width))
            lines.append(
                f"  {label:>6s} |{'#' * filled}{' ' * (width - filled)}| "
                f"{value * 100:5.1f}%"
            )
    return "\n".join(lines)
