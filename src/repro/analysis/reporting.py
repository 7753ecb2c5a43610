"""Plain-text table rendering for benches and examples.

Keeps output paper-comparable: every bench prints the table it
reproduces next to the values the paper reports.
"""

from __future__ import annotations

from typing import Dict, Iterable, Sequence


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    title: str = "",
) -> str:
    """Render an aligned monospace table."""
    rendered_rows = [[_cell(value) for value in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rendered_rows:
        if len(row) != len(headers):
            raise ValueError(
                f"row has {len(row)} cells for {len(headers)} headers"
            )
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rendered_rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def _cell(value: object) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        return f"{value:.3g}" if abs(value) < 10 else f"{value:.1f}"
    return str(value)


def format_comparison(
    metric: str,
    measured: Dict[str, float],
    unit: str = "",
    lower_is_better: bool = True,
) -> str:
    """Render a cross-system comparison with a winner marker."""
    if not measured:
        raise ValueError("nothing to compare")
    best = (min if lower_is_better else max)(measured.values())
    rows = []
    for system, value in sorted(measured.items(), key=lambda kv: kv[1]):
        marker = " <-- best" if value == best else ""
        rows.append([system, f"{value:.4g} {unit}".strip() + marker])
    return format_table(["system", metric], rows)
