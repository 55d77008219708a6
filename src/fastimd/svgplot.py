"""Minimal deterministic SVG line charts.

One polyline per series, shared axes, a small legend. Output depends only on
the input, so identical calls produce byte-identical files.

Both axes stay finite up to the float64 limit, and every point lies in the
plot box. A polyline's points are written in whole hundredths of a plot
unit, ``round(100 * x)``, and the polyline is drawn at ``scale(0.01)``;
its text comes from arrays, by the writer ``csvio`` uses for whole-number
columns. The chart is one well-formed XML document, written once; title
and label characters that cannot be encoded (a file name's undecodable
bytes) or that XML does not allow (control characters) show as ``?``.

A polyline holds at most four points per quarter unit of plot width (M4
aggregation: Jugel et al., "M4: A Visualization-Oriented Time Series Data
Aggregation", VLDB 2014). Its points are grouped into columns
``floor(4 * x)``; a column of more than four points keeps its first and
last point and the first points with the lowest and the highest ``y``, in
index order. The line through those four enters and leaves the column where
the full line does and spans the same heights in it, so the chart draws the
same up to a device pixel ratio of 4, and a dense series costs text per
column rather than per sample: the 3,521 columns from x = 64 to x = 944 hold
at most 14,084 points, whatever the length of the series.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from .csvio import _join_text, _whole_text, _write_atomic
from .series import TimeSeries

__all__ = ["render_svg"]

_PALETTE = (
    "#d95f02",  # orange
    "#1f77b4",  # blue
    "#2ca02c",  # green
    "#7f3fbf",  # purple
    "#8c564b",  # brown
    "#17becf",  # teal
    "#e377c2",  # pink
    "#555555",  # grey
)

_WIDTH = 960
_HEIGHT = 480
_MARGIN_LEFT = 64
_MARGIN_RIGHT = 16
_MARGIN_TOP = 36
_MARGIN_BOTTOM = 44
_HALF_MAX = 0.5 * float(np.finfo(np.float64).max)
_COLUMNS_PER_UNIT = 4  # thinning columns per unit of plot width


def render_svg(series_set: Mapping[str, TimeSeries], path: str, title: str = "") -> None:
    """Write a standalone SVG chart of the labelled series to ``path``."""
    if not series_set:
        raise ValueError("render_svg needs at least one series")
    labels = list(series_set.keys())
    t_lo = min(float(s.times[0]) for s in series_set.values())
    t_hi = max(float(s.times[-1]) for s in series_set.values())
    v_lo = min(float(s.values.min()) for s in series_set.values())
    v_hi = max(float(s.values.max()) for s in series_set.values())
    # both axes work in halves of coordinates of magnitude one or more, so
    # their ranges, pads and ticks stay finite up to the float64 limit;
    # halving them is exact, and the padded value axis is cut at the limit
    # it would pass. Series hold two increasing times, so t_hi > t_lo
    t_scale = 0.5 if max(-t_lo, t_hi) >= 1.0 else 1.0
    t_lo, t_hi = t_scale * t_lo, t_scale * t_hi
    scale = 0.5 if max(-v_lo, v_hi) >= 1.0 else 1.0
    v_lo, v_hi = scale * v_lo, scale * v_hi
    if v_hi == v_lo:
        # one unit either side, or the value's own size where a unit is lost in it
        step = scale if v_lo - scale != v_lo else abs(v_lo)
        v_lo, v_hi = v_lo - step, v_hi + step
    pad = 0.05 * (v_hi - v_lo)
    v_lo = max(v_lo - pad, -_HALF_MAX)
    v_hi = min(v_hi + pad, _HALF_MAX)

    x0, x1 = _MARGIN_LEFT, _WIDTH - _MARGIN_RIGHT
    y0, y1 = _HEIGHT - _MARGIN_BOTTOM, _MARGIN_TOP

    def sx(t: float) -> float:
        return x0 + (t_scale * t - t_lo) / (t_hi - t_lo) * (x1 - x0)

    def sy(v: float) -> float:
        return y0 + (scale * v - v_lo) / (v_hi - v_lo) * (y1 - y0)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_WIDTH}" height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect x="0" y="0" width="{_WIDTH}" height="{_HEIGHT}" fill="#ffffff"/>',
    ]
    if title:
        parts.append(
            f'<text x="{_WIDTH / 2:.1f}" y="20" text-anchor="middle" '
            f'font-family="sans-serif" font-size="14">{_escape(title)}</text>'
        )

    # axes box and ticks
    parts.append(
        f'<rect x="{x0}" y="{y1}" width="{x1 - x0}" height="{y0 - y1}" '
        f'fill="none" stroke="#888888" stroke-width="1"/>'
    )
    for tick in np.linspace(t_lo, t_hi, 6):
        t = tick / t_scale
        x = sx(t)
        parts.append(f'<line x1="{x:.2f}" y1="{y0}" x2="{x:.2f}" y2="{y0 + 5}" stroke="#888888"/>')
        parts.append(
            f'<text x="{x:.2f}" y="{y0 + 18}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{_fmt(t)}</text>'
        )
    for tick in np.linspace(v_lo, v_hi, 6):
        v = tick / scale
        y = sy(v)
        parts.append(f'<line x1="{x0 - 5}" y1="{y:.2f}" x2="{x0}" y2="{y:.2f}" stroke="#888888"/>')
        parts.append(
            f'<text x="{x0 - 8}" y="{y + 4:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{_fmt(v)}</text>'
        )
    if v_lo < 0.0 < v_hi:
        y = sy(0.0)
        parts.append(
            f'<line x1="{x0}" y1="{y:.2f}" x2="{x1}" y2="{y:.2f}" '
            f'stroke="#cccccc" stroke-width="1"/>'
        )

    for k, label in enumerate(labels):
        s = series_set[label]
        color = _PALETTE[k % len(_PALETTE)]
        x, y = sx(s.times), sy(s.values)
        kept = _kept_points(x, y)
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="120" '
            f'transform="scale(0.01)" points="{_points_text(x[kept], y[kept])}"/>'
        )
        lx = x0 + 10
        ly = y1 + 16 + 16 * k
        parts.append(
            f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{lx + 28}" y="{ly}" font-family="sans-serif" '
            f'font-size="12">{_escape(label)}</text>'
        )

    parts.append("</svg>")
    _write_atomic(path, [("\n".join(parts) + "\n").encode("utf-8", errors="replace")])


def _kept_points(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The indices of the polyline points a chart draws, increasing: all of
    a column ``floor(4 * x)`` of at most four points, else its first, its
    last and the first of its lowest and of its highest ``y``. ``x`` is
    non-decreasing, so each column is one run of points."""
    column = np.floor(x * _COLUMNS_PER_UNIT)
    starts = np.flatnonzero(np.concatenate(([True], column[1:] != column[:-1])))
    sizes = np.diff(starts, append=len(x))
    keep = np.repeat(sizes <= 4, sizes)
    keep[starts] = True
    keep[starts + sizes - 1] = True
    for extreme in (np.minimum, np.maximum):
        at = np.flatnonzero(y == np.repeat(extreme.reduceat(y, starts), sizes))
        keep[at[np.searchsorted(at, starts)]] = True  # the first in each column
    return np.flatnonzero(keep)


def _points_text(x: np.ndarray, y: np.ndarray) -> str:
    """``" ".join(f"{round(100 * x[i])},{round(100 * y[i])}" for i in ...)``,
    for at least one point; coordinates lie in the plot box."""
    x, y = np.rint(100.0 * x), np.rint(100.0 * y)
    text = np.concatenate((_whole_text(x, x, b","), _whole_text(y, y, b" ")))
    text[-1, -1] = 0  # no separator after the last point
    return _join_text(text).decode("ascii")


def _fmt(x: float) -> str:
    return f"{x:.6g}"


# characters XML 1.0 does not allow in a document: the C0 controls other than
# tab, line feed and carriage return, and U+FFFE and U+FFFF
_NOT_XML = {c: "?" for c in (*range(0x09), 0x0B, 0x0C, *range(0x0E, 0x20), 0xFFFE, 0xFFFF)}


def _escape(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;").translate(_NOT_XML)

