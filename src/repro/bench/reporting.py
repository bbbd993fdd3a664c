"""Plain-text rendering of tables and figure series."""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

#: Characters in the longest bar of a chart.
BAR_WIDTH = 50


def render_table(
    headers: Sequence[str], rows: Iterable[Sequence[object]]
) -> str:
    """Fixed-width ASCII table."""
    str_rows = [[str(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    sep = "-+-".join("-" * w for w in widths)
    out = [
        " | ".join(h.ljust(w) for h, w in zip(headers, widths)),
        sep,
    ]
    for row in str_rows:
        out.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(out)


def render_bars(title: str, series: Dict[str, float]) -> str:
    """Horizontal ASCII bar chart (one figure group), values as ratios."""
    if not series:
        return title
    peak = max(series.values()) or 1.0
    label_w = max(len(k) for k in series)
    lines = [title]
    for label, value in series.items():
        bar = "#" * max(1, int(round(BAR_WIDTH * value / peak)))
        lines.append(f"  {label.ljust(label_w)} {bar} {value:.2f}x")
    return "\n".join(lines)


def render_grouped_bars(
    title: str, groups: Dict[str, Dict[str, float]]
) -> str:
    """One chart per group (e.g. per benchmark), Figure 11 style."""
    out = [title]
    for group, series in groups.items():
        out.append(render_bars(f"[{group}]", series))
    return "\n\n".join(out)


def format_rate(rate: float) -> str:
    """False-positive rates as percentages on the paper's log scale."""
    if rate == 0.0:
        return "0 (below measurement floor)"
    return f"{rate * 100:.4g}%"
