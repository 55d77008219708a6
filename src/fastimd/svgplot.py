"""Minimal deterministic SVG line charts.

One polyline per series, shared axes, a small legend. Output depends only on
the input, so identical calls produce byte-identical files.

Both axes stay finite up to the float64 limit, and every point lies in the
plot box. Point coordinates are formatted as ``%.2f`` would format them,
from arrays, one block of ``_CHUNK`` points at a time.
"""

from __future__ import annotations

from typing import Iterator, Mapping

import numpy as np

from .csvio import _CHUNK, _digit_rows, _join_text, _write_atomic
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
        parts.append([
            f'<polyline fill="none" stroke="{color}" stroke-width="1.2" points="'.encode("ascii"),
            *_point_blocks(sx(s.times), sy(s.values)),
            b'"/>',
        ])
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
    _write_atomic(path, _lines(parts))


def _lines(parts: list[str | list[bytes]]) -> Iterator[bytes]:
    """Each part in UTF-8 (a polyline comes as its bytes, in pieces), then a newline."""
    for part in parts:
        if isinstance(part, str):
            yield part.encode("utf-8")
        else:
            yield from part
        yield b"\n"


def _point_blocks(x: np.ndarray, y: np.ndarray) -> list[bytes]:
    """``" ".join("%.2f,%.2f" % (x[i], y[i]) for i in range(len(x)))`` in
    ASCII, one piece per block of ``_CHUNK`` points; coordinates lie in
    [0, 2**52)."""
    blocks = []
    for lo in range(0, len(x), _CHUNK):
        text = np.concatenate((_cents_text(x[lo:lo + _CHUNK], b","),
                               _cents_text(y[lo:lo + _CHUNK], b" ")))
        if lo + _CHUNK >= len(x):
            text[-1, -1] = 0  # no separator after the last point
        blocks.append(_join_text(text))
    return blocks


def _points_text(x: np.ndarray, y: np.ndarray) -> str:
    """The joined ``_point_blocks`` as text, to compare with ``%`` formatting."""
    return b"".join(_point_blocks(x, y)).decode("ascii")


def _cents_text(v: np.ndarray, end: bytes) -> np.ndarray:
    """The text table (see ``csvio._join_text``) of ``"%.2f" % v[i]``
    followed by ``end``, one column per value."""
    # %.2f rounds 100 v on its exact binary value, ties to even. v is m 2**-s
    # for a 53-bit integer m, so 100 m < 2**60 and the rounding is in integers;
    # cutting s at 62 still rounds every v below 2**-10 to 0
    mantissa, exponent = np.frexp(v)
    hundred_m = (mantissa * 2.0 ** 53).astype(np.int64) * 100
    s = np.minimum(53 - exponent, 62).astype(np.int64)
    cents = (hundred_m + (1 << (s - 1)) - 1 + ((hundred_m >> s) & 1)) >> s
    whole, frac = np.divmod(cents, 100)
    width = len(str(int(whole.max())))
    text = np.empty((width + 4, len(v)), dtype=np.uint8)
    text[:width] = _digit_rows(whole, width)
    powers = 10 ** np.arange(width - 1, 0, -1, dtype=np.int64)
    text[:width - 1] *= (whole >= powers[:, None]).view(np.uint8)  # no leading zeros
    text[width] = ord(".")
    text[width + 1:width + 3] = _digit_rows(frac, 2)
    text[width + 3] = ord(end)
    return text


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _escape(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")

