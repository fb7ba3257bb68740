"""Plain-text table rendering shared by the benches and examples."""

from __future__ import annotations

from typing import Sequence


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: str | None = None,
) -> str:
    """Monospace table with per-column width fitting.

    Floats are rendered with 4 significant digits; everything else via
    ``str``.
    """

    def fmt(cell: object) -> str:
        if isinstance(cell, float):
            if cell == 0:
                return "0"
            if abs(cell) >= 1e5 or abs(cell) < 1e-3:
                return f"{cell:.3e}"
            return f"{cell:.4g}"
        return str(cell)

    str_rows = [[fmt(c) for c in row] for row in rows]
    widths = [
        max(len(headers[j]), *(len(r[j]) for r in str_rows)) if str_rows else len(headers[j])
        for j in range(len(headers))
    ]
    sep = "-+-".join("-" * w for w in widths)
    out = []
    if title:
        out.append(title)
        out.append("=" * len(title))
    out.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    out.append(sep)
    for r in str_rows:
        out.append(" | ".join(c.rjust(w) for c, w in zip(r, widths)))
    return "\n".join(out)


def render_bars(
    values: dict[str, float],
    width: int = 50,
    unit: str = "",
    title: str | None = None,
) -> str:
    """ASCII horizontal bar chart (largest value fills ``width`` columns).

    The plot-free "figure" renderer used by examples and benches; values
    must be non-negative.
    """
    if not values:
        return "(no data)"
    if any(v < 0 for v in values.values()):
        raise ValueError("render_bars requires non-negative values")
    vmax = max(values.values()) or 1.0
    label_w = max(len(k) for k in values)
    out = []
    if title:
        out.append(title)
    for key, v in values.items():
        bar = "#" * max(int(round(v / vmax * width)), 1 if v > 0 else 0)
        out.append(f"{key.ljust(label_w)} | {bar} {v:.4g}{unit}")
    return "\n".join(out)
