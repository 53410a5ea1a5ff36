"""Plain-text rendering of experiment output.

The paper reports its evaluation as figures (execution time vs. minimum
support, relative time vs. scale) and tables. In a terminal-only
reproduction those become aligned text tables and ASCII charts; every
bench and ``seqmine experiment`` (``--list`` names the artifacts; see the
README's *Experiment harness* entry) prints through these helpers.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence as PySequence


def format_table(
    headers: PySequence[str],
    rows: Iterable[PySequence[object]],
    *,
    title: str | None = None,
) -> str:
    """Align columns; numbers right-aligned, text left-aligned."""
    materialized = [[_cell(v) for v in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in materialized:
        if len(row) != len(headers):
            raise ValueError(
                f"row width {len(row)} does not match header width {len(headers)}"
            )
        for index, value in enumerate(row):
            widths[index] = max(widths[index], len(value))
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * w for w in widths))
    for row in materialized:
        rendered = []
        for index, value in enumerate(row):
            if _is_number(value):
                rendered.append(value.rjust(widths[index]))
            else:
                rendered.append(value.ljust(widths[index]))
        lines.append("  ".join(rendered))
    return "\n".join(lines)


def _cell(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)


def _is_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def format_series_chart(
    series: Mapping[str, PySequence[tuple[float, float]]],
    *,
    title: str = "",
    x_label: str = "x",
    y_label: str = "y",
    width: int = 60,
    height: int = 16,
) -> str:
    """A minimal ASCII scatter/line chart for runtime-vs-knob figures.

    Each named series gets a marker character; points are plotted on a
    linear grid. Good enough to eyeball the crossovers the paper's figures
    show, without any plotting dependency.
    """
    markers = "*o+x#@%&"
    points = [
        (x, y) for values in series.values() for x, y in values
    ]
    lines = []
    if title:
        lines.append(title)
    if not points:
        lines.append("(no data)")
        return "\n".join(lines)
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    x_min, x_max = min(xs), max(xs)
    y_min, y_max = min(ys), max(ys)
    x_span = (x_max - x_min) or 1.0
    y_span = (y_max - y_min) or 1.0

    grid = [[" "] * width for _ in range(height)]
    for index, (name, values) in enumerate(series.items()):
        marker = markers[index % len(markers)]
        for x, y in values:
            col = round((x - x_min) / x_span * (width - 1))
            row = height - 1 - round((y - y_min) / y_span * (height - 1))
            grid[row][col] = marker
    for row_index, row in enumerate(grid):
        prefix = f"{y_max:10.2f} |" if row_index == 0 else (
            f"{y_min:10.2f} |" if row_index == height - 1 else " " * 11 + "|"
        )
        lines.append(prefix + "".join(row))
    lines.append(" " * 11 + "+" + "-" * width)
    lines.append(
        " " * 12 + f"{x_min:g}".ljust(width - 8) + f"{x_max:g} ({x_label})"
    )
    legend = "   ".join(
        f"{markers[i % len(markers)]} {name}" for i, name in enumerate(series)
    )
    lines.append(f"  [{y_label}]  {legend}")
    return "\n".join(lines)
