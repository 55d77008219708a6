"""Tests for the mode refinement core.

The median rule is checked against a literal scalar reimplementation on a
hundred random control sequences.  The sampled cosine gives an exact fixed
point: its extremum polyline alternates perfectly, every median collapses to
the axis, and one refinement pass must return a zero residue.
"""

import warnings

import numpy as np
import numpy.testing as npt
import pytest

from fastimd import (
    RefinementConfig,
    TimeSeries,
    decompose,
    differentiate,
    extract_mode,
    find_extrema,
    imf_report,
    initial_residue,
    median_points,
    random_walk,
    refine_once,
    turning_directions,
    two_cosine,
)


def cosine_series(amplitude=3.0, period=20.0, span=100.0, step=0.5):
    t = np.arange(0.0, span + step / 2.0, step)
    return TimeSeries(t, amplitude * np.cos(2.0 * np.pi * t / period))


# ---------------------------------------------------------------------------
# turning directions
# ---------------------------------------------------------------------------

def test_turning_frozen():
    out = turning_directions(np.array([0.0, 1.0, 2.0]), np.array([0.0, 1.0, 0.0]))
    npt.assert_array_equal(out, [-2.0])


def test_turning_signs():
    # upward kink turns left, downward kink turns right, straight is zero
    assert turning_directions(np.array([0.0, 1.0, 2.0]), np.array([0.0, 0.0, 1.0]))[0] > 0
    assert turning_directions(np.array([0.0, 1.0, 2.0]), np.array([0.0, 0.0, -1.0]))[0] < 0
    npt.assert_allclose(
        turning_directions(np.array([0.0, 1.0, 2.0]), np.array([1.0, 3.0, 5.0])),
        [0.0],
        atol=1e-15,
    )


def test_turning_matches_cross_product():
    rng = np.random.default_rng(14)
    for _ in range(50):
        n = int(rng.integers(3, 30))
        t = np.sort(rng.uniform(0.0, 10.0, n)) + np.arange(n) * 1e-3
        v = rng.normal(size=n)
        got = turning_directions(t, v)
        pts = np.column_stack([t, v, np.zeros(n)])
        want = np.cross(pts[1:-1] - pts[:-2], pts[2:] - pts[1:-1])[:, 2]
        npt.assert_allclose(got, want, atol=1e-12)


def test_turning_needs_three_points():
    with pytest.raises(ValueError):
        turning_directions(np.array([0.0, 1.0]), np.array([0.0, 1.0]))


# ---------------------------------------------------------------------------
# median points
# ---------------------------------------------------------------------------

def test_median_frozen():
    t = np.arange(5.0)
    v = np.array([0.0, 0.0, 2.0, 0.0, 0.0])
    mt, mv = median_points(t, v)
    npt.assert_array_equal(mt, [2.0])
    # halfway between the peak and the chord through its neighbours
    npt.assert_allclose(mv, [1.0], atol=1e-12)


def test_median_passes_through_consistent_turns():
    t = np.arange(7.0)
    v = t**2  # every turn bends the same way
    mt, mv = median_points(t, v)
    npt.assert_array_equal(mt, t[2:-2])
    npt.assert_array_equal(mv, v[2:-2])


def test_median_matches_scalar_rule():
    """Vectorised medians equal a literal one-point-at-a-time evaluation."""

    def scalar_medians(t, v):
        alpha = [
            (t[i] - t[i - 1]) * (v[i + 1] - v[i]) - (v[i] - v[i - 1]) * (t[i + 1] - t[i])
            for i in range(1, len(t) - 1)
        ]
        out_t, out_v = [], []
        for i in range(2, len(t) - 2):
            a_prev, a_here, a_next = alpha[i - 2], alpha[i - 1], alpha[i]
            out_t.append(t[i])
            if a_prev * a_here < 0.0 or a_here * a_next < 0.0:
                chord = v[i - 1] + (v[i + 1] - v[i - 1]) * (t[i] - t[i - 1]) / (
                    t[i + 1] - t[i - 1]
                )
                out_v.append(0.5 * (v[i] + chord))
            else:
                out_v.append(v[i])
        return np.array(out_t), np.array(out_v)

    rng = np.random.default_rng(21)
    for case in range(100):
        n = int(rng.integers(5, 40))
        t = np.sort(rng.uniform(0.0, 30.0, n)) + np.arange(n) * 1e-3
        if case % 2 == 0:
            v = rng.normal(size=n)  # arbitrary shape
        else:
            v = rng.uniform(1.0, 4.0, n) * (-1.0) ** np.arange(n)  # alternating
        mt, mv = median_points(t, v)
        st, sv = scalar_medians(t, v)
        npt.assert_allclose(mt, st, atol=1e-12)
        npt.assert_allclose(mv, sv, atol=1e-12)


def test_median_alternating_collapses_to_chord_average():
    # equal-amplitude alternation: chord through the two neighbours sits at
    # the opposite value, so every median lands on zero
    t = np.arange(9.0)
    v = 2.0 * (-1.0) ** np.arange(9)
    mt, mv = median_points(t, v)
    npt.assert_allclose(mv, 0.0, atol=1e-12)


def test_median_needs_five_points():
    with pytest.raises(ValueError):
        median_points(np.arange(4.0), np.zeros(4))


# ---------------------------------------------------------------------------
# initial residue
# ---------------------------------------------------------------------------

def test_initial_residue_zero_start():
    s = two_cosine()
    r = initial_residue(s, "data_function")
    npt.assert_array_equal(r.values, 0.0)
    npt.assert_array_equal(r.times, s.times)


def test_initial_residue_derivative_none_without_curvature_turns():
    t = np.arange(20.0)
    assert initial_residue(TimeSeries(t, 3.0 * t + 1.0)) is None
    assert initial_residue(TimeSeries(t, t**2)) is None


def test_initial_residue_derivative_tracks_slow_part():
    # inflections of a sine sit at its roots, so the polyline through them
    # stays near the axis
    t = np.arange(0.0, 12.0, 0.01)
    r = initial_residue(TimeSeries(t, np.sin(t)), "derivative")
    assert np.max(np.abs(r.values)) < 0.05


def test_initial_residue_rejects_unknown():
    with pytest.raises(ValueError):
        initial_residue(two_cosine(), "spline")


# ---------------------------------------------------------------------------
# one refinement pass
# ---------------------------------------------------------------------------

def test_refine_once_identity():
    s = two_cosine()
    start = initial_residue(s, "derivative")
    imf0 = s.with_values(s.values - start.values)
    residue, imf, count = refine_once(s, imf0)
    npt.assert_allclose(imf.values + residue.values, s.values, atol=1e-12)
    assert count == len(find_extrema(imf0))


def test_refine_once_cosine_fixed_point():
    """A pure cosine is its own component: the refined residue vanishes."""
    s = cosine_series()
    residue, imf, _ = refine_once(s, s)
    assert np.max(np.abs(residue.values)) < 1e-9
    npt.assert_allclose(imf.values, s.values, atol=1e-9)


def test_refine_once_needs_oscillation():
    t = np.arange(10.0)
    trend = TimeSeries(t, t)
    assert refine_once(trend, trend) is None


# ---------------------------------------------------------------------------
# extract_mode
# ---------------------------------------------------------------------------

def test_extract_none_on_trend():
    t = np.arange(50.0)
    assert extract_mode(TimeSeries(t, 2.0 * t + 1.0)) is None
    assert extract_mode(TimeSeries(t, 0.1 * t**2)) is None


def test_extract_cosine():
    s = cosine_series()
    mode = extract_mode(s)
    assert mode is not None
    npt.assert_allclose(mode.imf.values + mode.residue.values, s.values, atol=1e-12)
    # the component carries the oscillation; the residue is comparatively flat
    assert mode.residue.spread < 0.1 * s.spread
    rep = imf_report(mode.imf)
    assert rep.condition1_ok


def test_extract_diagnostics_are_consistent():
    s = two_cosine()
    mode = extract_mode(s)
    assert mode.iterations >= 1
    assert len(mode.delta_history) >= mode.iterations
    assert mode.final_delta >= 0.0
    assert s.times[0] <= mode.delta_time <= s.times[-1]
    assert mode.extrema_count == len(find_extrema(mode.imf))
    lo, hi = mode.value_range
    assert lo == mode.imf.values.min()
    assert hi == mode.imf.values.max()


def test_extract_respects_iteration_cap():
    cfg = RefinementConfig(max_iterations=1, delta_tolerance=0.0)
    mode = extract_mode(two_cosine(), cfg)
    assert mode.iterations == 1
    assert len(mode.delta_history) == 1


def test_extract_huge_tolerance_stops_after_one_pass():
    cfg = RefinementConfig(delta_tolerance=1e12)
    mode = extract_mode(two_cosine(), cfg)
    assert mode.iterations == 1


def test_delta_history_shrinks_before_stop():
    mode = extract_mode(two_cosine())
    kept = mode.delta_history[: mode.iterations]
    for a, b in zip(kept, kept[1:]):
        assert b < a


# ---------------------------------------------------------------------------
# decompose
# ---------------------------------------------------------------------------

def test_decompose_two_cosine_structure():
    result = decompose(two_cosine())
    assert len(result.modes) == 2
    # fast ripple first, slow swell second
    assert result.modes[0].extrema_count > 50
    assert result.modes[1].extrema_count <= 7


def test_decompose_telescopes():
    """Modes plus final residue rebuild the input to round-off, whatever the
    input looks like."""
    rng = np.random.default_rng(0)
    for seed in range(5):
        walk_rng = np.random.default_rng(seed)
        n = int(rng.integers(200, 600))
        t = np.arange(float(n))
        v = np.cumsum(walk_rng.normal(size=n))
        s = TimeSeries(t, v)
        result = decompose(s)
        total = result.final_residue.values.copy()
        for mode in result.modes:
            total = total + mode.imf.values
        npt.assert_allclose(total, v, atol=1e-9 * max(s.spread, 1.0))


def test_decompose_residue_is_exhausted():
    result = decompose(two_cosine())
    # nothing oscillatory remains at the end
    assert len(find_extrema(differentiate(result.final_residue))) < 3


def test_decompose_respects_max_modes():
    rng = np.random.default_rng(1)
    s = TimeSeries(np.arange(400.0), np.cumsum(rng.normal(size=400)))
    result = decompose(s, max_modes=2)
    assert len(result.modes) == 2
    with pytest.raises(ValueError):
        decompose(s, max_modes=0)


def test_decompose_constant_and_line():
    t = np.arange(30.0)
    r = decompose(TimeSeries(t, np.full(30, 2.5)))
    assert len(r.modes) == 0
    npt.assert_array_equal(r.final_residue.values, 2.5)
    r = decompose(TimeSeries(t, 4.0 - 0.5 * t))
    assert len(r.modes) == 0


def test_decompose_too_short_to_differentiate():
    s = TimeSeries(np.array([0.0, 1.0]), np.array([1.0, 2.0]))
    assert extract_mode(s) is None
    r = decompose(s)
    assert r.modes == ()
    npt.assert_array_equal(r.final_residue.values, s.values)


@pytest.mark.parametrize("scale", [1e-250, 1e-200, 1e250, 1e290])
def test_decompose_mode_count_is_scale_free(scale):
    # turning-direction products underflow or overflow at these scales;
    # the median rule must compare signs
    walk = random_walk(3)
    want = len(decompose(walk).modes)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = len(decompose(walk.with_values(walk.values * scale)).modes)
    assert got == want


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------

def test_config_rejects_bad_fields():
    with pytest.raises(ValueError):
        RefinementConfig(max_iterations=0)
    with pytest.raises(ValueError):
        RefinementConfig(delta_tolerance=-1.0)
    with pytest.raises(ValueError):
        RefinementConfig(extension="mirror")
    with pytest.raises(ValueError):
        RefinementConfig(initialization="guess")


def test_config_resolves_default_tolerance():
    s = cosine_series(amplitude=10.0)
    cfg = RefinementConfig()
    assert cfg.resolve_delta_tolerance(s) == pytest.approx(1e-3 * s.spread)
    assert RefinementConfig(delta_tolerance=0.25).resolve_delta_tolerance(s) == 0.25
