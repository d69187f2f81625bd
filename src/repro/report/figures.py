"""ASCII line plots and CSV series output.

:func:`ascii_plot` reproduces the paper's gnuplot panels in the
terminal: multiple series on shared axes, optional log-x / log-y, one
glyph per series.  :func:`write_csv` persists the same series for
external plotting.
"""

from __future__ import annotations

import csv
import io
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

__all__ = ["ascii_plot", "series_to_csv", "write_csv"]

_GLYPHS = "1234567890abcdef"


def ascii_plot(
    series: Mapping[str, tuple[Sequence[float], Sequence[float]]],
    width: int = 72,
    height: int = 20,
    log_x: bool = False,
    log_y: bool = False,
    title: str | None = None,
    x_label: str = "x",
    y_label: str = "y",
) -> str:
    """Render labelled (x, y) series as an ASCII chart.

    Args:
        series: Map from label to ``(x, y)`` arrays.
        width, height: Plot area size in characters.
        log_x, log_y: Log-scale the axis (non-positive values are
            dropped from that series, as gnuplot does).
        title: Optional heading line.
        x_label, y_label: Axis captions for the footer.

    Returns:
        The rendered chart; one glyph per series with a legend.
    """
    if not series:
        raise ValueError("no series to plot")
    if width < 8 or height < 4:
        raise ValueError("plot area too small")

    prepared: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    for label, (xs, ys) in series.items():
        x = np.asarray(xs, dtype=np.float64)
        y = np.asarray(ys, dtype=np.float64)
        if x.shape != y.shape:
            raise ValueError(f"series {label!r}: x and y are misaligned")
        keep = np.isfinite(x) & np.isfinite(y)
        if log_x:
            keep &= x > 0
        if log_y:
            keep &= y > 0
        x, y = x[keep], y[keep]
        if len(x):
            prepared[label] = (
                np.log10(x) if log_x else x,
                np.log10(y) if log_y else y,
            )
    if not prepared:
        raise ValueError("all series were empty after filtering")

    x_min = min(float(x.min()) for x, _ in prepared.values())
    x_max = max(float(x.max()) for x, _ in prepared.values())
    y_min = min(float(y.min()) for _, y in prepared.values())
    y_max = max(float(y.max()) for _, y in prepared.values())
    if x_max == x_min:
        x_max = x_min + 1.0
    if y_max == y_min:
        y_max = y_min + 1.0

    grid = [[" "] * width for _ in range(height)]
    for index, (label, (x, y)) in enumerate(prepared.items()):
        glyph = _GLYPHS[index % len(_GLYPHS)]
        cols = np.clip(
            ((x - x_min) / (x_max - x_min) * (width - 1)).round().astype(int),
            0,
            width - 1,
        )
        rows = np.clip(
            ((y - y_min) / (y_max - y_min) * (height - 1)).round().astype(int),
            0,
            height - 1,
        )
        for col, row in zip(cols, rows):
            grid[height - 1 - row][col] = glyph

    def axis_value(value: float, is_log: bool) -> str:
        return f"{10**value:.3g}" if is_log else f"{value:.3g}"

    lines = []
    if title:
        lines.append(title)
    top = axis_value(y_max, log_y)
    bottom = axis_value(y_min, log_y)
    margin = max(len(top), len(bottom)) + 1
    for row_no, row in enumerate(grid):
        if row_no == 0:
            prefix = top.rjust(margin)
        elif row_no == height - 1:
            prefix = bottom.rjust(margin)
        else:
            prefix = " " * margin
        lines.append(f"{prefix}|{''.join(row)}")
    lines.append(" " * margin + "+" + "-" * width)
    left = axis_value(x_min, log_x)
    right = axis_value(x_max, log_x)
    pad = width - len(left) - len(right)
    lines.append(" " * (margin + 1) + left + " " * max(pad, 1) + right)
    legend = "  ".join(
        f"[{_GLYPHS[i % len(_GLYPHS)]}] {label}"
        for i, label in enumerate(prepared)
    )
    lines.append(f"{x_label} vs {y_label}   {legend}")
    return "\n".join(lines)


def series_to_csv(
    series: Mapping[str, tuple[Sequence[float], Sequence[float]]],
) -> list[list[object]]:
    """Flatten labelled series into long-format rows (label, x, y)."""
    rows: list[list[object]] = [["series", "x", "y"]]
    for label, (xs, ys) in series.items():
        for x, y in zip(xs, ys):
            rows.append([label, float(x), float(y)])
    return rows


def write_csv(
    path: str | Path,
    series: Mapping[str, tuple[Sequence[float], Sequence[float]]],
) -> Path:
    """Write labelled series to a long-format CSV file.

    The rows of :func:`series_to_csv`, as ``csv.writer`` spells them.
    Floats never need quoting and ``csv`` writes them as ``repr``, so
    only the label goes through the csv module, once per series.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as handle:
        handle.write("series,x,y\r\n")
        for label, (xs, ys) in series.items():
            prefix = _csv_prefix(label)
            rows = zip(_floats(xs), _floats(ys))
            handle.write("".join([f"{prefix}{x!r},{y!r}\r\n" for x, y in rows]))
    return path


def _csv_prefix(label: object) -> str:
    """``label`` as the first field of a ``csv.writer`` row, with its comma."""
    buffer = io.StringIO(newline="")
    # A second (empty) field: csv quotes a lone empty field as "".
    csv.writer(buffer).writerow([label, ""])
    return buffer.getvalue()[:-2]


def _floats(values: Sequence[float]) -> list[float]:
    """``[float(v) for v in values]``, converted in one numpy call."""
    column = np.asarray(values, dtype=np.float64)
    real = isinstance(values, np.ndarray) and values.dtype.kind in "biuf"
    if column.ndim != 1 or (not real and np.isnan(column).any()):
        # np.asarray turns None into NaN and accepts nested sequences,
        # both of which float() rejects: let float() judge these.
        return [float(v) for v in values]
    return column.tolist()
