"""Tests for the SVG chart writer."""

import hashlib
import math
import re
from xml.etree import ElementTree

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fastimd import TimeSeries, render_svg, two_cosine
from fastimd import svgplot


def points_in_box(points: str) -> list:
    """A polyline's ``points`` as ``(x, y)`` pairs of whole hundredths of a
    plot unit, the unit it is drawn in, once each pair is shown to be two
    non-negative integers inside the plot box times 100."""
    x0, x1 = 100 * svgplot._MARGIN_LEFT, 100 * (svgplot._WIDTH - svgplot._MARGIN_RIGHT)
    y1, y0 = 100 * svgplot._MARGIN_TOP, 100 * (svgplot._HEIGHT - svgplot._MARGIN_BOTTOM)
    pairs = []
    for point in points.split(" "):
        assert re.fullmatch(r"[0-9]+,[0-9]+", point), point
        x, y = map(int, point.split(","))
        assert x0 <= x <= x1 and y1 <= y <= y0, point
        pairs.append((x, y))
    return pairs


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


NOT_XML = [chr(c) for c in (*range(0x09), 0x0B, 0x0C, *range(0x0E, 0x20), 0xFFFE, 0xFFFF)]


@pytest.mark.parametrize("char", NOT_XML, ids=[f"U+{ord(c):04X}" for c in NOT_XML])
def test_svg_text_that_xml_does_not_allow_shows_as_a_question_mark(tmp_path, char):
    # such a character in a title or label used to make the chart not parse
    path = tmp_path / "ctl.svg"
    t = np.arange(3.0)
    render_svg({f"in{char}put": TimeSeries(t, t)}, str(path), title=f"a{char}b\t<c>")
    texts = [e.text for e in ElementTree.parse(path).iter("{http://www.w3.org/2000/svg}text")]
    assert "a?b\t<c>" in texts and "in?put" in texts


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
    (_, first), (_, last) = points_in_box(re.findall(r'points="([^"]*)"', text)[0])
    assert last <= first
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


def test_svg_bytes_are_pinned(tmp_path):
    # the whole document: part order, escaping, ticks, the zero line, one
    # thinned polyline (2,001 points in 353 columns) and one drawn whole,
    # the legend, and a newline after every part
    i = np.arange(2001)
    dense = TimeSeries(i / 200.0, ((i * 37) % 101 - 50) / 10.0)
    j = np.arange(21)
    sparse = TimeSeries(5.0 * j, (j % 7 - 3) * 1.5)
    path = tmp_path / "pinned.svg"
    render_svg({"dense": dense, "sparse": sparse}, str(path), title="pinned & <chart>")
    data = path.read_bytes()
    points = [len(p.split()) for p in re.findall(rb'points="([^"]*)"', data)]
    assert points == [1201, 21]
    assert b"pinned &amp; &lt;chart&gt;" in data and b'stroke="#cccccc"' in data
    assert data.endswith(b"</svg>\n")
    assert hashlib.sha256(data).hexdigest() == (
        "b6b910047a0fa18b730c0d1dc4f0f48192be546906fa9e016eedbe98ba8ceecc")


def _reference_kept(xs, ys) -> list:
    """The indices of the points a chart keeps, picked one point at a time:
    every point of a quarter-unit column of at most four, else the column's
    first, last, first lowest and first highest."""
    columns = {}
    for i, x in enumerate(xs):
        columns.setdefault(math.floor(4 * x), []).append(i)
    kept = []
    for members in columns.values():
        if len(members) > 4:
            lowest = min(members, key=lambda i: ys[i])  # min and max return the first
            highest = max(members, key=lambda i: ys[i])
            members = {members[0], members[-1], lowest, highest}
        kept.extend(members)
    return sorted(kept)


def _reference_point(x, y) -> str:
    return f"{round(100 * x)},{round(100 * y)}"


def _reference_svg_points(series_set) -> list:
    """Each polyline's ``points`` as ``render_svg`` picks them, formatted one
    point at a time in whole hundredths."""
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

    charts = []
    for s in series_set.values():
        xs = [sx(t) for t in s.times]
        ys = [sy(v) for v in s.values]
        charts.append(" ".join(_reference_point(xs[i], ys[i]) for i in _reference_kept(xs, ys)))
    return charts


# lengths either side of a power of two, and a few times past it
@pytest.mark.parametrize("n", [2, 4095, 4096, 4097, 12293])
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
        points_in_box(points)
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
    xs = [x for x, _ in points_in_box(re.findall(r'points="([^"]*)"', text)[0])]
    assert xs[0] == 100 * svgplot._MARGIN_LEFT
    assert xs[-1] == 100 * (svgplot._WIDTH - svgplot._MARGIN_RIGHT)
    assert xs == sorted(xs)


def test_point_text_matches_per_point_rounding():
    # whole hundredths of the plot box: the half-way values k/200 and their
    # neighbours either way must each round as round(100 * x) does
    halves = np.arange(96_000) / 200.0
    rng = np.random.default_rng(10)
    values = np.concatenate([
        halves, np.nextafter(halves, np.inf), np.nextafter(halves[1:], -np.inf),
        [0.0], rng.uniform(0.0, 960.0, 100_000),
    ])
    x, y = values, rng.permutation(values)
    for n in (1, 2, 4095, 4096, 4097, len(x)):
        pairs = zip(x[:n].tolist(), y[:n].tolist())
        assert svgplot._points_text(x[:n], y[:n]) == " ".join(_reference_point(*p) for p in pairs)


# plot widths between neighbouring points, from many per quarter-unit column
# to one column apart, and values with ties
_STEPS = st.sampled_from([0.0, 1e-3, 0.01, 0.05, 0.1, 0.26, 1.0])
_LEVELS = st.integers(-3, 3).map(float) | st.floats(-1e3, 1e3)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(start=st.floats(64.0, 900.0), steps=st.lists(_STEPS, min_size=1, max_size=300),
       levels=st.data())
def test_thinning_keeps_each_columns_ends_and_extremes(start, steps, levels):
    x = start + np.cumsum([0.0] + steps)
    y = np.array(levels.draw(st.lists(_LEVELS, min_size=len(x), max_size=len(x))))
    kept = svgplot._kept_points(x, y)
    assert np.all(kept[1:] > kept[:-1])  # index order, each point once
    column = np.floor(4 * x)
    dense = False
    for c in np.unique(column):
        members = np.flatnonzero(column == c)
        held = kept[column[kept] == c]
        assert len(held) <= 4
        assert {members[0], members[-1], members[np.argmin(y[members])],
                members[np.argmax(y[members])]} <= set(held.tolist())
        dense |= len(members) > 4
        if len(members) <= 4:
            assert held.tolist() == members.tolist()
    if not dense:
        assert kept.tolist() == list(range(len(x)))
    assert kept.tolist() == _reference_kept(x.tolist(), y.tolist())


def test_polylines_of_a_long_series_hold_at_most_four_points_per_column(tmp_path):
    # the plot box spans the 3,521 quarter-unit columns from x = 64 to
    # x = 944, so no polyline holds more than 14,084 points, whatever n is
    n = 1_000_000
    rng = np.random.default_rng(14)
    times = np.cumsum(rng.uniform(0.5, 1.5, n))
    series_set = {"noise": TimeSeries(times, rng.standard_normal(n)),
                  "walk": TimeSeries(times[::2], np.cumsum(rng.standard_normal(n // 2)))}
    path = tmp_path / "long.svg"
    render_svg(series_set, str(path))
    counts = [len(p.split()) for p in re.findall(r'points="([^"]*)"', path.read_text())]
    assert len(counts) == 2
    assert max(counts) <= 4 * 3521
