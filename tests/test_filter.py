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
    build_spline,
    extract_mode,
    filter_series,
    find_extrema,
    mark_extrema,
    random_walk,
    sinusoid,
    two_cosine,
)
from fastimd.imd import _chord_midpoints


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

def edges(imf):
    """Durations of the monotone edges between adjacent extrema, the series
    endpoints standing in for the outer neighbours of the first and last
    extremum: extremum k has front edge k and back edge k + 1."""
    ext = find_extrema(imf)
    return np.diff(np.concatenate(([imf.times[0]], ext.time, [imf.times[-1]])))


def test_edges_frozen():
    s = small_saw()
    npt.assert_array_equal(edges(s), [1.0, 2.0, 2.0, 2.0, 1.0])
    # every extremum has a 2-unit edge; the outer ones also a 1-unit edge
    lists = mark_extrema(s, FilterCriteria(jump_time_blocks=((2.0, 3.0),)))
    assert [[e.time for e in run.extrema] for run in lists] == [[1.0, 3.0, 5.0, 7.0]]
    lists = mark_extrema(s, FilterCriteria(jump_time_blocks=((1.0, 2.0),)))
    assert [[e.time for e in run.extrema] for run in lists] == [[1.0], [7.0]]


def test_edges_uniform_cosine():
    # extrema every half period; endpoints supply the outer neighbours
    npt.assert_array_equal(edges(uniform_cosine()), np.full(10, 10.0))


def test_edges_empty_without_extrema():
    # the one edge spans the whole series and has no extremum to mark
    t = np.arange(10.0)
    s = TimeSeries(t, 2.0 * t)
    npt.assert_array_equal(edges(s), [9.0])
    assert mark_extrema(s, FilterCriteria(jump_time_blocks=((0.0, 100.0),))) == []


def test_edges_pair_up():
    # the back edge of extremum k is the front edge of extremum k + 1, so
    # blocking one interior edge marks exactly those two extrema
    rng = np.random.default_rng(33)
    cases = 0
    for _ in range(20):
        n = int(rng.integers(20, 120))
        s = TimeSeries(np.cumsum(rng.uniform(0.5, 1.5, n)), np.cumsum(rng.normal(size=n)))
        ext, e = find_extrema(s), edges(s)
        for k in range(1, len(e) - 1):
            if np.count_nonzero(e == e[k]) > 1:
                continue
            block = ((float(e[k]), float(np.nextafter(e[k], np.inf))),)
            lists = mark_extrema(s, FilterCriteria(jump_time_blocks=block))
            assert len(lists) == 1
            npt.assert_array_equal(lists[0].extrema.index, ext.index[k - 1:k + 1])
            cases += 1
    assert cases > 100


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
# against a global-rescan reference
# ---------------------------------------------------------------------------

def _reference_mark_extrema(imf, criteria):
    """Runs as (extremum sample indices, anchor_before, anchor_after), found
    by a loop over the marks."""
    ext = find_extrema(imf)
    durations = edges(imf)
    marked = np.zeros(len(ext), dtype=bool)
    for lo, hi in criteria.jump_time_blocks:
        for side in (durations[:-1], durations[1:]):
            marked |= (side >= lo) & (side < hi)
    if criteria.amplitude_floor > 0.0:
        v = np.abs(ext.value)
        marked |= (v > 0.0) & (v < criteria.amplitude_floor)
    seq_t = [float(imf.times[0]), *ext.time.tolist(), float(imf.times[-1])]
    seq_v = [float(imf.values[0]), *ext.value.tolist(), float(imf.values[-1])]
    runs = []
    k = 0
    while k < len(ext):
        if not marked[k]:
            k += 1
            continue
        j = k
        while j < len(ext) and marked[j]:
            j += 1
        runs.append((ext.index[k:j], (seq_t[k], seq_v[k]), (seq_t[j + 1], seq_v[j + 1])))
        k = j
    return runs


def _reference_build_passed_function(imf, runs):
    """Bridge values with every median taken from a rescan of the whole
    component, each run's extrema located in it by ``searchsorted``."""
    ext = find_extrema(imf)
    seq_t = np.concatenate(([imf.times[0]], ext.time, [imf.times[-1]]))
    seq_v = np.concatenate(([imf.values[0]], ext.value, [imf.values[-1]]))
    medians = np.where(ext.value == 0.0, 0.0, _chord_midpoints(seq_t, seq_v))
    out = imf.values.copy()
    for index, before, after in runs:
        pos = np.searchsorted(ext.index, index)
        knot_t = np.concatenate(([before[0]], seq_t[pos + 1], [after[0]]))
        knot_v = np.concatenate(([before[1]], medians[pos], [after[1]]))
        bridge = build_spline(knot_t, knot_v, flat_ends=True)
        mask = (imf.times >= knot_t[0]) & (imf.times <= knot_t[-1])
        out[mask] = bridge.evaluate_on_grid(imf.times[mask])
    return out


def test_runs_and_bridges_match_reference():
    rng = np.random.default_rng(47)
    cases = 0
    for _ in range(100):
        n = int(rng.integers(8, 300))
        t = np.cumsum(rng.uniform(0.1, 3.0, n))
        # rounding leaves plateaus; the first component adds exact-zero extrema
        walk = TimeSeries(t, np.round(np.cumsum(rng.normal(size=n)), 1))
        mode = extract_mode(walk)
        for imf in (walk,) if mode is None else (walk, mode.imf):
            blocks = []
            for _ in range(int(rng.integers(0, 3))):
                lo = float(rng.uniform(0.0, 6.0))
                blocks.append((lo, lo + float(rng.uniform(0.5, 8.0))))
            floor = float(rng.uniform(0.0, 0.3 * imf.spread)) if rng.random() < 0.5 else 0.0
            criteria = FilterCriteria(jump_time_blocks=tuple(blocks), amplitude_floor=floor)
            lists = mark_extrema(imf, criteria)
            want = _reference_mark_extrema(imf, criteria)
            assert len(lists) == len(want)
            ext = find_extrema(imf)
            for lst, (index, before, after) in zip(lists, want):
                i = int(np.searchsorted(ext.index, index[0]))
                j = i + len(index)
                npt.assert_array_equal(lst.extrema.index, ext.index[i:j])
                npt.assert_array_equal(lst.extrema.index, index)
                npt.assert_array_equal(lst.extrema.time, ext.time[i:j])
                npt.assert_array_equal(lst.extrema.value, ext.value[i:j])
                npt.assert_array_equal(lst.extrema.is_max, ext.is_max[i:j])
                assert (lst.anchor_before, lst.anchor_after) == (before, after)
            npt.assert_array_equal(build_passed_function(imf, lists).values,
                                   _reference_build_passed_function(imf, want))
            cases += len(lists) > 0
    # most cases mark something, so the bridges are exercised
    assert cases > 100


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
        FilterCriteria(amplitude_floor=float("nan"))


def test_criteria_tolerance_resolution():
    # the filter settles at the first pass that moves no sample by 1e-3 of
    # the input's spread, before the pass cap and while marks remain
    s = random_walk(1)
    criteria = FilterCriteria(jump_time_blocks=((0.0, 10.0),))
    res = filter_series(s, criteria)
    changes = [d.max_change for d in res.diagnostics]
    assert res.passes < criteria.max_passes
    assert min(changes[:-1]) >= 1e-3 * s.spread > changes[-1]
    assert mark_extrema(extract_mode(res.filtered).imf, criteria)


@pytest.mark.filterwarnings("error")
def test_overflowing_bridges_raise():
    # the bridge moments overflow float64 where the component itself does
    # not; the error says so, with no numpy warning on the way
    criteria = FilterCriteria(jump_time_blocks=((0.0, 20.0),))
    with pytest.raises(FloatingPointError, match="values overflowed float64"):
        filter_series(sinusoid(amplitude=5e307), criteria)
