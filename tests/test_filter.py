"""Tests for cycle-level filtering.

The nine-sample sawtooth with one undersized peak is small enough to check
by hand: its peak medians, run anchors, and the bridged values at t = 4 and
t = 5 are frozen below.  End-to-end behaviour is pinned on the two-cosine
signal, where a [0, 20) jump-time block must strip the fast ripple.
"""

import numpy as np
import numpy.testing as npt
import pytest

from fastimd import (
    FilterCriteria,
    TimeSeries,
    build_passed_function,
    edge_jump_times,
    filter_series,
    find_extrema,
    mark_extrema,
    two_cosine,
)


def small_saw():
    t = np.arange(9.0)
    v = np.array([0.0, 2.0, 0.0, -2.0, 0.0, 0.4, 0.0, -2.0, 0.0])
    return TimeSeries(t, v)


def uniform_cosine():
    t = np.arange(0.0, 100.5, 0.5)
    return TimeSeries(t, 3.0 * np.cos(2.0 * np.pi * t / 20.0))


# ---------------------------------------------------------------------------
# edge durations
# ---------------------------------------------------------------------------

def test_edges_frozen():
    front, back = edge_jump_times(small_saw())
    npt.assert_array_equal(front, [1.0, 2.0, 2.0, 2.0])
    npt.assert_array_equal(back, [2.0, 2.0, 2.0, 1.0])


def test_edges_uniform_cosine():
    front, back = edge_jump_times(uniform_cosine())
    # extrema every half period; endpoints supply the outer neighbours
    npt.assert_array_equal(front, np.full(9, 10.0))
    npt.assert_array_equal(back, np.full(9, 10.0))


def test_edges_empty_without_extrema():
    t = np.arange(10.0)
    front, back = edge_jump_times(TimeSeries(t, 2.0 * t))
    assert front.shape == (0,)
    assert back.shape == (0,)


def test_edges_pair_up():
    # back edge of extremum k is the front edge of extremum k+1
    rng = np.random.default_rng(33)
    for _ in range(20):
        n = int(rng.integers(20, 120))
        s = TimeSeries(np.arange(float(n)), np.cumsum(rng.normal(size=n)))
        front, back = edge_jump_times(s)
        if len(front) > 1:
            npt.assert_array_equal(back[:-1], front[1:])


# ---------------------------------------------------------------------------
# marking
# ---------------------------------------------------------------------------

def test_mark_nothing_by_default():
    assert mark_extrema(small_saw(), FilterCriteria()) == []


def test_mark_amplitude_floor():
    lists = mark_extrema(small_saw(), FilterCriteria(amplitude_floor=1.0))
    assert len(lists) == 1
    run = lists[0]
    assert [e.time for e in run.extrema] == [5.0]
    assert run.anchor_before == (3.0, -2.0)
    assert run.anchor_after == (7.0, -2.0)


def test_floor_ignores_exact_zero():
    # amplitude strictly between 0 and the floor; a zero-valued extremum
    # stays unmarked
    t = np.arange(5.0)
    v = np.array([1.0, -1.0, 0.0, -1.0, 1.0])
    assert mark_extrema(TimeSeries(t, v), FilterCriteria(amplitude_floor=0.5)) == []


def test_jump_block_is_half_open():
    s = uniform_cosine()
    # all edges are exactly 10: a block ending at 10 excludes them, a block
    # starting at 10 catches every extremum
    assert mark_extrema(s, FilterCriteria(jump_time_blocks=((0.0, 10.0),))) == []
    lists = mark_extrema(s, FilterCriteria(jump_time_blocks=((10.0, 11.0),)))
    assert len(lists) == 1
    assert len(lists[0].extrema) == 9
    # the run spans everything, so the anchors are the endpoint samples
    assert lists[0].anchor_before == (0.0, 3.0)
    assert lists[0].anchor_after == (100.0, 3.0)


def test_mark_either_edge_suffices():
    # only the outermost edges have duration 1; a [0, 1.5) block marks just
    # the first and last extremum
    lists = mark_extrema(small_saw(), FilterCriteria(jump_time_blocks=((0.0, 1.5),)))
    times = [e.time for run in lists for e in run.extrema]
    assert times == [1.0, 7.0]
    assert len(lists) == 2


def test_runs_split_on_unmarked_gaps():
    lists = mark_extrema(small_saw(), FilterCriteria(jump_time_blocks=((0.0, 1.5),)))
    # two separate single-extremum runs, each anchored on its unmarked side
    assert lists[0].anchor_before == (0.0, 0.0)
    assert lists[0].anchor_after == (3.0, -2.0)
    assert lists[1].anchor_before == (5.0, 0.4)
    assert lists[1].anchor_after == (8.0, 0.0)


# ---------------------------------------------------------------------------
# bridging
# ---------------------------------------------------------------------------

def test_bridge_untouched_without_marks():
    s = small_saw()
    out = build_passed_function(s, [])
    npt.assert_array_equal(out.values, s.values)


def test_bridge_frozen_values():
    s = small_saw()
    lists = mark_extrema(s, FilterCriteria(amplitude_floor=1.0))
    out = build_passed_function(s, lists)
    # knot at the marked peak: average of 0.4 and the chord through the
    # neighbouring minima, both at -2
    assert out.values[5] == pytest.approx(-0.8, abs=1e-12)
    assert out.values[4] == pytest.approx(-1.4, abs=1e-12)
    # anchors interpolated exactly, samples outside the span untouched
    assert out.values[3] == pytest.approx(-2.0, abs=1e-12)
    assert out.values[7] == pytest.approx(-2.0, abs=1e-12)
    npt.assert_array_equal(out.values[:3], s.values[:3])
    npt.assert_array_equal(out.values[8:], s.values[8:])


def test_bridge_levels_alternating_run():
    s = uniform_cosine()
    lists = mark_extrema(s, FilterCriteria(jump_time_blocks=((10.0, 11.0),)))
    out = build_passed_function(s, lists)
    # every median of the equal-amplitude alternation is zero, so away from
    # the clamped ends the bridge hugs the axis
    middle = (s.times >= 20.0) & (s.times <= 80.0)
    assert np.max(np.abs(out.values[middle])) < 0.7
    assert np.max(np.abs(out.values)) < 3.01


def test_bridge_keeps_zero_extrema_on_axis():
    t = np.arange(7.0)
    v = np.array([1.0, -2.0, 1.5, 0.0, 1.5, -2.0, 1.0])
    s = TimeSeries(t, v)
    ext = find_extrema(s)
    assert any(e.value == 0.0 for e in ext)
    lists = mark_extrema(s, FilterCriteria(jump_time_blocks=((0.0, 100.0),)))
    out = build_passed_function(s, lists)
    # the zero-valued extremum is its own median
    assert out.values[3] == pytest.approx(0.0, abs=1e-9)


# ---------------------------------------------------------------------------
# end-to-end filtering
# ---------------------------------------------------------------------------

def test_filter_splits_exactly():
    s = two_cosine()
    res = filter_series(s, FilterCriteria(jump_time_blocks=((0.0, 20.0),)))
    npt.assert_allclose(res.filtered.values + res.blocked.values, s.values, atol=1e-9)
    assert res.passes == len(res.diagnostics)
    assert res.passes >= 1
    for d in res.diagnostics:
        assert d.marked >= 1
        assert d.max_change >= 0.0


def test_filter_lowpass_strips_ripple():
    s = two_cosine()
    res = filter_series(s, FilterCriteria(jump_time_blocks=((0.0, 20.0),)))
    slow = 70.0 * np.cos(np.pi * s.times / 150.0)
    n = len(s)
    interior = slice(n // 10, n - n // 10)
    rmse = np.sqrt(np.mean((res.filtered.values[interior] - slow[interior]) ** 2))
    assert rmse < 3.0
    # the removed part oscillates at the fast scale: plenty of extrema
    assert len(find_extrema(res.blocked)) > 40


def test_filter_noop_returns_input():
    s = two_cosine()
    res = filter_series(s, FilterCriteria(jump_time_blocks=((0.0, 0.1),)))
    assert res.passes == 0
    assert res.diagnostics == ()
    npt.assert_array_equal(res.filtered.values, s.values)
    npt.assert_array_equal(res.blocked.values, 0.0)


def test_filter_passes_short_input_through():
    s = TimeSeries(np.array([0.0, 1.0]), np.array([3.0, -1.0]))
    res = filter_series(s, FilterCriteria(jump_time_blocks=((0.0, 20.0),)))
    assert res.passes == 0
    npt.assert_array_equal(res.filtered.values, s.values)


def test_filter_respects_pass_cap():
    s = two_cosine()
    res = filter_series(
        s, FilterCriteria(jump_time_blocks=((0.0, 20.0),), max_passes=1)
    )
    assert res.passes == 1


def test_filter_amplitude_floor_end_to_end():
    # a small fast wiggle on a large slow swing; one amplitude-floor pass
    # must remove the wiggle (later passes would start nibbling at the slow
    # component's own extraction leftovers)
    t = np.arange(0.0, 600.0, 0.5)
    slow = 50.0 * np.cos(np.pi * t / 150.0)
    fast = 1.5 * np.sin(np.pi * t / 10.0)
    s = TimeSeries(t, slow + fast)
    res = filter_series(s, FilterCriteria(amplitude_floor=4.0, max_passes=1))
    n = len(t)
    interior = slice(n // 10, n - n // 10)
    before = np.sqrt(np.mean((s.values[interior] - slow[interior]) ** 2))
    after = np.sqrt(np.mean((res.filtered.values[interior] - slow[interior]) ** 2))
    assert after < 0.05 * before
    npt.assert_allclose(res.filtered.values + res.blocked.values, s.values, atol=1e-9)


def test_criteria_validation():
    with pytest.raises(ValueError):
        FilterCriteria(jump_time_blocks=((5.0, 5.0),))
    with pytest.raises(ValueError):
        FilterCriteria(jump_time_blocks=((8.0, 3.0),))
    with pytest.raises(ValueError):
        FilterCriteria(amplitude_floor=-1.0)
    with pytest.raises(ValueError):
        FilterCriteria(max_passes=0)
    with pytest.raises(ValueError):
        FilterCriteria(settle_tolerance=-0.5)


def test_criteria_tolerance_resolution():
    s = two_cosine()
    assert FilterCriteria().resolve_settle_tolerance(s) == pytest.approx(1e-3 * s.spread)
    assert FilterCriteria(settle_tolerance=0.75).resolve_settle_tolerance(s) == 0.75
