"""Tests for the SVG chart writer."""

import re

import numpy as np
import pytest

from fastimd import TimeSeries, render_svg, two_cosine
from fastimd import svgplot
from fastimd.csvio import _CHUNK


def test_svg_structure(tmp_path):
    path = str(tmp_path / "chart.svg")
    s = two_cosine()
    render_svg({"input": s, "half": s.with_values(0.5 * s.values)}, path,
               title="check")
    text = (tmp_path / "chart.svg").read_text()
    assert text.startswith("<svg")
    assert text.rstrip().endswith("</svg>")
    assert text.count("<polyline") == 2
    assert "check" in text
    # one legend entry per series
    assert "input" in text and "half" in text


def test_svg_is_deterministic(tmp_path):
    a = str(tmp_path / "a.svg")
    b = str(tmp_path / "b.svg")
    s = two_cosine()
    render_svg({"x": s}, a)
    render_svg({"x": s}, b)
    assert (tmp_path / "a.svg").read_bytes() == (tmp_path / "b.svg").read_bytes()


def test_svg_escapes_markup(tmp_path):
    path = str(tmp_path / "esc.svg")
    t = np.arange(3.0)
    render_svg({"a<b&c": TimeSeries(t, t)}, path, title="x<y>z&w")
    text = (tmp_path / "esc.svg").read_text()
    assert "a&lt;b&amp;c" in text
    assert "x&lt;y&gt;z&amp;w" in text
    assert "x<y" not in text


def test_svg_rejects_empty(tmp_path):
    with pytest.raises(ValueError):
        render_svg({}, str(tmp_path / "never.svg"))
    assert not (tmp_path / "never.svg").exists()


def test_svg_draws_zero_line_only_when_crossed(tmp_path):
    t = np.arange(5.0)
    above = str(tmp_path / "above.svg")
    render_svg({"a": TimeSeries(t, t + 1.0)}, above)
    crossing = str(tmp_path / "cross.svg")
    render_svg({"a": TimeSeries(t, t - 2.0)}, crossing)
    # the axis guide is the only element stroked #cccccc
    assert 'stroke="#cccccc"' not in (tmp_path / "above.svg").read_text()
    assert 'stroke="#cccccc"' in (tmp_path / "cross.svg").read_text()


def _reference_svg_points(series_set) -> list:
    """Each polyline's ``points`` as ``render_svg`` formatted them one point at a time."""
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
    x0, x1 = svgplot._MARGIN_LEFT, svgplot._WIDTH - svgplot._MARGIN_RIGHT
    y0, y1 = svgplot._HEIGHT - svgplot._MARGIN_BOTTOM, svgplot._MARGIN_TOP

    def sx(t):
        return x0 + (t - t_lo) / (t_hi - t_lo) * (x1 - x0)

    def sy(v):
        return y0 + (v - v_lo) / (v_hi - v_lo) * (y1 - y0)

    return [" ".join(f"{sx(t):.2f},{sy(v):.2f}" for t, v in zip(s.times, s.values))
            for s in series_set.values()]


@pytest.mark.parametrize("n", [2, _CHUNK - 1, _CHUNK, _CHUNK + 1, 3 * _CHUNK + 5])
def test_svg_points_match_per_point_reference(tmp_path, n):
    rng = np.random.default_rng(n)
    series_set = {}
    for label, scale in (("unit", 1.0), ("huge", 8e307), ("tiny", 1e-300)):
        times = rng.uniform(-30.0, 10.0) + np.cumsum(rng.uniform(1e-3, 2.0, n))
        values = rng.uniform(-scale, scale, n)
        values[0] = -0.0
        values[-1] = 5e-324
        series_set[label] = TimeSeries(times, values)
    # one chart per series, so each gets its own axis range, and one with all three
    charts = [{label: s} for label, s in series_set.items()] + [series_set]
    for chart in charts:
        path = tmp_path / "pin.svg"
        render_svg(chart, str(path))
        text = path.read_text()
        assert re.findall(r'points="([^"]*)"', text) == _reference_svg_points(chart)
