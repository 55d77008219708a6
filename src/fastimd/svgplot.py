"""Minimal deterministic SVG line charts.

One polyline per series, shared axes, a small legend. Output depends only on
the input, so identical calls produce byte-identical files.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from .csvio import _format_pairs, _write_atomic
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


def render_svg(series_set: Mapping[str, TimeSeries], path: str, title: str = "") -> None:
    """Write a standalone SVG chart of the labelled series to ``path``."""
    if not series_set:
        raise ValueError("render_svg needs at least one series")
    labels = list(series_set.keys())
    t_lo = min(float(s.times[0]) for s in series_set.values())
    t_hi = max(float(s.times[-1]) for s in series_set.values())
    v_lo = min(float(s.values.min()) for s in series_set.values())
    v_hi = max(float(s.values.max()) for s in series_set.values())
    if t_hi == t_lo:
        t_hi = t_lo + 1.0
    if v_hi == v_lo:
        v_lo, v_hi = v_lo - 1.0, v_hi + 1.0
    pad = 0.05 * (v_hi - v_lo)
    v_lo -= pad
    v_hi += pad

    x0, x1 = _MARGIN_LEFT, _WIDTH - _MARGIN_RIGHT
    y0, y1 = _HEIGHT - _MARGIN_BOTTOM, _MARGIN_TOP

    def sx(t: float) -> float:
        return x0 + (t - t_lo) / (t_hi - t_lo) * (x1 - x0)

    def sy(v: float) -> float:
        return y0 + (v - v_lo) / (v_hi - v_lo) * (y1 - y0)

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
    for t in np.linspace(t_lo, t_hi, 6):
        x = sx(t)
        parts.append(f'<line x1="{x:.2f}" y1="{y0}" x2="{x:.2f}" y2="{y0 + 5}" stroke="#888888"/>')
        parts.append(
            f'<text x="{x:.2f}" y="{y0 + 18}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{_fmt(t)}</text>'
        )
    for v in np.linspace(v_lo, v_hi, 6):
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
        pts = "".join(_format_pairs("%.2f,%.2f", " ", sx(s.times), sy(s.values)))
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.2" points="{pts}"/>'
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
    _write_atomic(path, (part + "\n" for part in parts))


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _escape(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")

