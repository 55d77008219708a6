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


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("values", [(-8.9e307, 8.9e307), (-1.7e308, 1.7e308), (1e200, 1e200)],
                         ids=["edge", "limit", "flat"])
def test_svg_of_large_values_is_finite(tmp_path, values):
    # the value range, its 5% pad and the ticks pass the float64 limit in
    # the first two, and one unit either side is lost in the flat one; the
    # chart must stay finite, with no warning on the way
    path = tmp_path / "big.svg"
    render_svg({"big": TimeSeries(np.array([0.0, 1.0]), np.array(values))}, str(path))
    text = path.read_text()
    assert "nan" not in text and "inf" not in text
    # the line runs up through the plot box, or level across its middle
    points = re.findall(r'points="([^"]*)"', text)[0].split()
    (_, first), (_, last) = (map(float, p.split(",")) for p in points)
    assert svgplot._MARGIN_TOP <= last <= first <= svgplot._HEIGHT - svgplot._MARGIN_BOTTOM
    assert (last < first) == (values[1] > values[0])


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


def _assert_inside_box(text):
    """Every polyline point and every tick lies in the plot box."""
    x0, x1 = svgplot._MARGIN_LEFT, svgplot._WIDTH - svgplot._MARGIN_RIGHT
    y0, y1 = svgplot._HEIGHT - svgplot._MARGIN_BOTTOM, svgplot._MARGIN_TOP
    assert "nan" not in text and "inf" not in text
    for points in re.findall(r'points="([^"]*)"', text):
        for point in points.split():
            x, y = map(float, point.split(","))
            assert x0 <= x <= x1 and y1 <= y <= y0
    for x in re.findall(r'<line x1="([-\d.]+)" y1="[-\d.]+" x2="\1"', text):
        assert x0 <= float(x) <= x1
    for y in re.findall(r'<line x1="[-\d.]+" y1="([-\d.]+)" x2="[-\d.]+" y2="\1"', text):
        assert y1 <= float(y) <= y0


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("times", [(-1e308, 0.0, 1e308), (-1.7976931348623157e308, 1.7e308),
                                   (-8.9e307, 8.9e307), (1e308, 1.7976931348623157e308)],
                         ids=["wide", "limit", "edge", "top"])
def test_svg_of_large_times_is_finite(tmp_path, times):
    # the time range and the tick spacing pass the float64 limit in the
    # first two; the chart must stay finite and inside its box, with no
    # warning on the way
    path = tmp_path / "wide.svg"
    times = np.array(times)
    render_svg({"wide": TimeSeries(times, np.arange(len(times), dtype=float))}, str(path))
    text = path.read_text()
    _assert_inside_box(text)
    points = re.findall(r'points="([^"]*)"', text)[0].split()
    xs = [float(p.split(",")[0]) for p in points]
    assert xs[0] == svgplot._MARGIN_LEFT and xs[-1] == svgplot._WIDTH - svgplot._MARGIN_RIGHT
    assert xs == sorted(xs)


def _reference_points_text(x, y) -> str:
    return " ".join("%.2f,%.2f" % pair for pair in zip(x, y))


def test_point_text_matches_percent_format():
    # exact ties k/8 round half to even; their neighbours either way must
    # not be taken for ties
    ties = np.arange(8000) / 8.0
    rng = np.random.default_rng(10)
    values = np.concatenate([
        ties, np.nextafter(ties, np.inf), np.nextafter(ties[1:], -np.inf),
        [0.0], rng.uniform(0.0, 960.0, 100_000),
    ])
    x, y = values, rng.permutation(values)
    assert svgplot._points_text(x, y) == _reference_points_text(x, y)
    for n in (1, 2, _CHUNK - 1, _CHUNK, _CHUNK + 1):
        assert svgplot._points_text(x[:n], y[:n]) == _reference_points_text(x[:n], y[:n])
