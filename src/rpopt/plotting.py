"""Deterministic SVG line plots from CSV tables.

No external plotting stack: the renderer is a pure function of the CSV
bytes and the plot description, so identical inputs produce byte-identical
SVG files (no timestamps, fixed float formatting).
"""

from __future__ import annotations

import html
import math
from dataclasses import dataclass

import numpy as np

from .data import read_table
from .errors import DataFormatError

WIDTH, HEIGHT = 720, 480  # SVG canvas, pixels

# Okabe-Ito palette: colorblind-safe, fixed order
PALETTE = (
    "#0072B2",
    "#D55E00",
    "#009E73",
    "#CC79A7",
    "#E69F00",
    "#56B4E9",
    "#F0E442",
    "#000000",
)


@dataclass(frozen=True)
class PlotSpec:
    x_column: str
    y_columns: tuple | None = None  # None: every other numeric column
    title: str = ""
    x_label: str = ""
    y_label: str = ""
    log_x: bool = False
    log_y: bool = True


def _nice_ticks(lo: float, hi: float, target: int = 5) -> list:
    """Round tick positions covering [lo, hi]."""
    if hi <= lo:
        hi = lo + 1.0
    raw_step = (hi - lo) / max(target, 1)
    magnitude = 10.0 ** math.floor(math.log10(raw_step))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        step = mult * magnitude
        if raw_step <= step:
            break
    first = math.ceil(lo / step) * step
    ticks = []
    value = first
    while value <= hi + 1e-9 * step:
        ticks.append(0.0 if abs(value) < 1e-12 * step else value)
        value += step
    return ticks


def _log_ticks(lo: float, hi: float) -> list:
    lo_exp = math.floor(math.log10(lo))
    hi_exp = math.ceil(math.log10(hi))
    ticks = [10.0**e for e in range(lo_exp, hi_exp + 1)]
    return [t for t in ticks if lo / 1.0001 <= t <= hi * 1.0001]


def _tick_label(value: float) -> str:
    if value != 0 and (abs(value) >= 1e5 or abs(value) < 1e-4):
        exponent = math.floor(math.log10(abs(value)))
        mantissa = value / 10.0**exponent
        if abs(mantissa - 1.0) < 1e-9:
            return f"1e{exponent}"
        return f"{mantissa:g}e{exponent}"
    return f"{value:g}"


def _escape(text: str) -> str:
    # only &, < and > need escaping in element text; quotes stay as written
    return html.escape(text, quote=False)


def _transform(values: np.ndarray, log: bool) -> np.ndarray:
    if log:
        out = np.where(values > 0, values, np.nan)
        return np.log10(out)
    return values


def render_plot(csv_path, spec: PlotSpec, out_path) -> str:
    """Render the CSV as a standalone SVG; returns the output path."""
    table = read_table(csv_path)
    if spec.x_column not in table:
        raise DataFormatError(f"CSV has no column {spec.x_column!r}")
    y_names = (
        list(spec.y_columns)
        if spec.y_columns is not None
        else [name for name in table if name != spec.x_column]
    )
    if not y_names:
        raise DataFormatError("no series columns to plot")
    for name in y_names:
        if name not in table:
            raise DataFormatError(f"CSV has no column {name!r}")

    x_raw = table[spec.x_column]
    xs = _transform(x_raw, spec.log_x)
    series = {name: _transform(table[name], spec.log_y) for name in y_names}

    finite_x = xs[np.isfinite(xs)]
    finite_y = np.concatenate(
        [vals[np.isfinite(vals) & np.isfinite(xs)] for vals in series.values()]
    )
    if finite_x.size == 0 or finite_y.size == 0:
        raise DataFormatError("no finite points to plot (log scale on data <= 0?)")
    x_lo, x_hi = float(finite_x.min()), float(finite_x.max())
    y_lo, y_hi = float(finite_y.min()), float(finite_y.max())
    if x_hi - x_lo < 1e-12:
        x_lo, x_hi = x_lo - 0.5, x_hi + 0.5
    if y_hi - y_lo < 1e-12:
        y_lo, y_hi = y_lo - 0.5, y_hi + 0.5
    pad_y = 0.05 * (y_hi - y_lo)
    y_lo -= pad_y
    y_hi += pad_y

    width, height = WIDTH, HEIGHT
    left, right, top, bottom = 64, 16, 28, 44
    plot_w = width - left - right
    plot_h = height - top - bottom

    def sx(v: float) -> float:
        return left + (v - x_lo) / (x_hi - x_lo) * plot_w

    def sy(v: float) -> float:
        return top + (y_hi - v) / (y_hi - y_lo) * plot_h

    parts = []
    parts.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">'
    )
    parts.append(f'<rect width="{width}" height="{height}" fill="#ffffff"/>')
    parts.append(
        f'<rect x="{left}" y="{top}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="#333333" stroke-width="1"/>'
    )

    if spec.log_x:
        x_ticks = [(math.log10(t), _tick_label(t)) for t in _log_ticks(10**x_lo, 10**x_hi)]
    else:
        x_ticks = [(t, _tick_label(t)) for t in _nice_ticks(x_lo, x_hi)]
    if spec.log_y:
        y_ticks = [(math.log10(t), _tick_label(t)) for t in _log_ticks(10**y_lo, 10**y_hi)]
    else:
        y_ticks = [(t, _tick_label(t)) for t in _nice_ticks(y_lo, y_hi)]

    for pos, label in x_ticks:
        px = sx(pos)
        if not left - 0.5 <= px <= left + plot_w + 0.5:
            continue
        parts.append(
            f'<line x1="{px:.2f}" y1="{top + plot_h}" x2="{px:.2f}" '
            f'y2="{top + plot_h + 5}" stroke="#333333" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{px:.2f}" y="{top + plot_h + 18}" font-family="sans-serif" '
            f'font-size="11" text-anchor="middle">{_escape(label)}</text>'
        )
    for pos, label in y_ticks:
        py = sy(pos)
        if not top - 0.5 <= py <= top + plot_h + 0.5:
            continue
        parts.append(
            f'<line x1="{left - 5}" y1="{py:.2f}" x2="{left}" y2="{py:.2f}" '
            f'stroke="#333333" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{left - 8}" y="{py + 4:.2f}" font-family="sans-serif" '
            f'font-size="11" text-anchor="end">{_escape(label)}</text>'
        )

    for index, name in enumerate(y_names):
        color = PALETTE[index % len(PALETTE)]
        values = series[name]
        points = [
            f"{sx(float(xv)):.2f},{sy(float(yv)):.2f}"
            for xv, yv in zip(xs, values)
            if math.isfinite(xv) and math.isfinite(yv)
        ]
        if points:
            parts.append(
                f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
                f'points="{" ".join(points)}"/>'
            )

    legend_x = left + plot_w - 8
    legend_y = top + 10
    for index, name in enumerate(y_names):
        color = PALETTE[index % len(PALETTE)]
        row_y = legend_y + 16 * index
        parts.append(
            f'<line x1="{legend_x - 150}" y1="{row_y:.2f}" x2="{legend_x - 126}" '
            f'y2="{row_y:.2f}" stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{legend_x - 120}" y="{row_y + 4:.2f}" '
            f'font-family="sans-serif" font-size="11">{_escape(name)}</text>'
        )

    if spec.title:
        parts.append(
            f'<text x="{width / 2:.2f}" y="18" font-family="sans-serif" '
            f'font-size="14" text-anchor="middle">{_escape(spec.title)}</text>'
        )
    if spec.x_label:
        parts.append(
            f'<text x="{left + plot_w / 2:.2f}" y="{height - 8}" '
            f'font-family="sans-serif" font-size="12" text-anchor="middle">'
            f"{_escape(spec.x_label)}</text>"
        )
    if spec.y_label:
        parts.append(
            f'<text x="14" y="{top + plot_h / 2:.2f}" font-family="sans-serif" '
            f'font-size="12" text-anchor="middle" '
            f'transform="rotate(-90 14 {top + plot_h / 2:.2f})">'
            f"{_escape(spec.y_label)}</text>"
        )

    parts.append("</svg>")
    svg = "\n".join(parts) + "\n"
    with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(svg)
    return str(out_path)
