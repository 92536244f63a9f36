"""Plain-text table formatting for the benchmark harness.

The harness prints the same rows the paper's tables and figures
report; this keeps the output aligned and diff-friendly.
"""

from typing import Iterable, List, Sequence


def _fmt(value, width: int, precision: int) -> str:
    if isinstance(value, float):
        return f"{value:>{width}.{precision}f}"
    return f"{value!s:>{width}}"


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence],
    precision: int = 3,
    min_width: int = 8,
) -> str:
    """Fixed-width table with a header rule."""
    rows = [list(r) for r in rows]
    widths: List[int] = []
    for col, h in enumerate(headers):
        w = max(min_width, len(h))
        for r in rows:
            cell = r[col]
            text = (f"{cell:.{precision}f}" if isinstance(cell, float)
                    else str(cell))
            w = max(w, len(text))
        widths.append(w)
    lines = ["  ".join(f"{h:>{w}}" for h, w in zip(headers, widths))]
    lines.append("  ".join("-" * w for w in widths))
    for r in rows:
        lines.append("  ".join(
            _fmt(cell, w, precision) for cell, w in zip(r, widths)))
    return "\n".join(lines)

