"""Deterministic SVG line plots from trajectory CSV files.

Self-contained SVG 1.1 output built by string assembly: identical input
produces byte-identical files, which keeps plots diffable and testable
without an image toolchain.
"""

from __future__ import annotations

import csv
from math import isfinite
from pathlib import Path

__all__ = ["PlotError", "read_csv_columns", "emit_plot"]

_WIDTH, _HEIGHT = 800, 480
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 64, 24, 28, 44
_PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#ff7f0e", "#9467bd", "#8c564b"]


class PlotError(ValueError):
    pass


def read_csv_columns(path) -> tuple[list[str], list[list[float]]]:
    """Read a numeric CSV; malformed rows are reported with their row number."""
    path = Path(path)
    if not path.exists():
        raise PlotError(f"CSV file {str(path)!r} not found")
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise PlotError(f"CSV file {str(path)!r} is empty") from None
        header = [name.strip() for name in header]
        columns: list[list[float]] = [[] for _ in header]
        for rownum, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise PlotError(
                    f"malformed CSV row {rownum}: expected {len(header)} fields, got {len(row)}"
                )
            try:
                parsed = [float(cell) for cell in row]
            except ValueError:
                raise PlotError(f"malformed CSV row {rownum}: non-numeric field") from None
            for col, value in zip(columns, parsed):
                col.append(value)
    if not columns[0]:
        raise PlotError(f"CSV file {str(path)!r} has no data rows")
    return header, columns


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _ticks(lo: float, hi: float, count: int = 5) -> list[float]:
    if hi == lo:
        return [lo]
    return [lo + (hi - lo) * i / (count - 1) for i in range(count)]


def emit_plot(csv_path, columns: list[str], out_path) -> Path:
    """Render selected CSV columns against the time column as SVG polylines (finite values only)."""
    header, data = read_csv_columns(csv_path)
    if not columns:
        raise PlotError("no columns selected")
    x_name = "t" if "t" in header else header[0]
    x = data[header.index(x_name)]
    series = []
    for name in columns:
        if name not in header:
            raise PlotError(f"unknown column {name!r}; available: {', '.join(header)}")
        series.append((name, data[header.index(name)]))
    names = [x_name, *columns]
    for row, values in enumerate(zip(x, *(vals for _, vals in series)), start=2):
        for name, value in zip(names, values):
            if not isfinite(value):
                raise PlotError(f"column {name!r} is not finite at row {row}: {value!r}")

    x_lo, x_hi = min(x), max(x)
    y_lo = min(min(vals) for _, vals in series)
    y_hi = max(max(vals) for _, vals in series)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi, y_lo = y_lo + 0.5, y_lo - 0.5
    pad = 0.05 * (y_hi - y_lo)
    y_lo -= pad
    y_hi += pad

    plot_w = _WIDTH - _MARGIN_L - _MARGIN_R
    plot_h = _HEIGHT - _MARGIN_T - _MARGIN_B

    def sx(v: float) -> float:
        return _MARGIN_L + plot_w * (v - x_lo) / (x_hi - x_lo)

    def sy(v: float) -> float:
        return _MARGIN_T + plot_h * (1.0 - (v - y_lo) / (y_hi - y_lo))

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_WIDTH}" height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect x="0" y="0" width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<rect x="{_MARGIN_L}" y="{_MARGIN_T}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="#333333" stroke-width="1"/>',
    ]
    for tick in _ticks(x_lo, x_hi):
        px = sx(tick)
        parts.append(
            f'<line x1="{_fmt(px)}" y1="{_MARGIN_T + plot_h}" x2="{_fmt(px)}" '
            f'y2="{_MARGIN_T + plot_h + 5}" stroke="#333333" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_fmt(px)}" y="{_MARGIN_T + plot_h + 18}" font-size="11" '
            f'font-family="sans-serif" text-anchor="middle">{_fmt(tick)}</text>'
        )
    for tick in _ticks(y_lo, y_hi):
        py = sy(tick)
        parts.append(
            f'<line x1="{_MARGIN_L - 5}" y1="{_fmt(py)}" x2="{_MARGIN_L}" '
            f'y2="{_fmt(py)}" stroke="#333333" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_MARGIN_L - 8}" y="{_fmt(py + 4)}" font-size="11" '
            f'font-family="sans-serif" text-anchor="end">{_fmt(tick)}</text>'
        )
    parts.append(
        f'<text x="{_MARGIN_L + plot_w / 2:.6g}" y="{_HEIGHT - 8}" font-size="12" '
        f'font-family="sans-serif" text-anchor="middle">{x_name}</text>'
    )
    for idx, (name, vals) in enumerate(series):
        color = _PALETTE[idx % len(_PALETTE)]
        points = " ".join(f"{_fmt(sx(xv))},{_fmt(sy(yv))}" for xv, yv in zip(x, vals))
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{points}"/>'
        )
        ly = _MARGIN_T + 16 + 16 * idx
        lx = _WIDTH - _MARGIN_R - 150
        parts.append(
            f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="1.5"/>'
        )
        parts.append(
            f'<text x="{lx + 28}" y="{ly}" font-size="12" font-family="sans-serif">{name}</text>'
        )
    parts.append("</svg>")

    out_path = Path(out_path)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text("\n".join(parts) + "\n")
    return out_path
