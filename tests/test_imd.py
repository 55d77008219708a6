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
    FilterCriteria,
    RefinementConfig,
    TimeSeries,
    build_spline,
    decompose,
    differentiate,
    extend,
    extract_mode,
    filter_series,
    find_extrema,
    imf_report,
    initial_residue,
    median_points,
    random_walk,
    refine_once,
    sinusoid,
    two_cosine,
)


def cosine_series(amplitude=3.0, period=20.0, span=100.0, step=0.5):
    t = np.arange(0.0, span + step / 2.0, step)
    return TimeSeries(t, amplitude * np.cos(2.0 * np.pi * t / period))


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


def test_turning_needs_three_points():
    with pytest.raises(ValueError):
        median_points(np.array([0.0, 1.0]), np.array([0.0, 1.0]))


def test_median_needs_five_points():
    for n in (3, 4):
        with pytest.raises(ValueError):
            median_points(np.arange(float(n)), np.zeros(n))


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


@pytest.mark.parametrize("initialization", ["derivative", "data_function"])
@pytest.mark.parametrize("turns", [1, 2])
def test_initial_residue_none_under_three_curvature_turns(turns, initialization):
    # the derivative of sin over turns + 1 half periods is cos, whose
    # interior extrema sit at pi, ..., turns * pi
    t = np.linspace(0.0, (turns + 1) * np.pi, 200)
    s = TimeSeries(t, np.sin(t))
    assert len(find_extrema(differentiate(s))) == turns
    assert initial_residue(s, initialization) is None
    assert extract_mode(s, RefinementConfig(initialization=initialization)) is None


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


def _reference_refine_once(data, current_imf, cfg):
    """One refinement pass that clips the data grid to the spline's knot
    span and evaluates it through the knot search; ``refine_once``, which
    passes the knots' grid positions instead, must match it bit for bit."""
    idx = find_extrema(current_imf).index
    if len(idx) < 3:
        return None
    start = (float(data.times[0]), float(data.values[0]))
    end = (float(data.times[-1]), float(data.values[-1]))
    ct, cv = data.times[idx], data.values[idx]
    if cfg.extension in ("even", "cyclic"):
        ct = np.concatenate(([data.times[0]], ct, [data.times[-1]]))
        cv = np.concatenate(([data.values[0]], cv, [data.values[-1]]))
    et, ev = extend(ct, cv, cfg.extension, start_anchor=start, end_anchor=end,
                    variant="consistent")
    mt, mv = median_points(et, ev)
    st, sv = extend(mt, mv, cfg.extension, start_anchor=start, end_anchor=end,
                    variant="consistent")
    spline = build_spline(st, sv)
    lo, hi = spline.t[0], spline.t[-1]
    residue = spline.evaluate_on_grid(np.clip(data.times, lo, hi))
    return residue, data.values - residue, len(idx)


def _outcome(step, *args):
    try:
        return step(*args)
    except ValueError as exc:
        return str(exc)


@pytest.mark.parametrize("extension", ["even", "odd", "cyclic"])
def test_refine_once_matches_clipped_reference(extension):
    # integer steps in {-1, 0, 1} leave plateaus, uneven spacing an irregular
    # grid; cyclic extension needs walks whose ends match, and where it still
    # cannot extend both passes must fail with the same message
    rng = np.random.default_rng(23)
    cfg = RefinementConfig(extension=extension)
    compared = 0
    for _ in range(30):
        n = int(rng.integers(20, 400))
        v = np.cumsum(rng.integers(-1, 2, n)).astype(np.float64)
        if extension == "cyclic":
            v[-1] = v[0]
        data = TimeSeries(np.cumsum(rng.uniform(0.05, 2.0, n)), v)
        imf = data
        for _ in range(3):
            got = _outcome(refine_once, data, imf, cfg)
            want = _outcome(_reference_refine_once, data, imf, cfg)
            if want is None or isinstance(want, str):
                assert got == want
                break
            residue, imf, count = got
            assert not residue.values.flags.writeable and not imf.values.flags.writeable
            assert residue.times is data.times and imf.times is data.times
            assert residue.values.tobytes() == want[0].tobytes()
            assert imf.values.tobytes() == want[1].tobytes()
            assert count == want[2]
            compared += 1
    assert compared >= 30


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


def test_cyclic_extension_decomposes_closed_walks():
    # random walks with their end-to-end drift removed close on themselves;
    # extend's strict cyclic tail failed on 27 of these 30 (25 with
    # non-increasing times, 2 with unequal ends at a later level), and
    # refinement now wraps with the consistent tail, which gives these modes
    want_modes = (7, 7, 6, 8, 7, 6, 8, 8, 8, 8, 7, 8, 8, 9, 8,
                  8, 9, 8, 9, 6, 9, 6, 7, 6, 7, 8, 7, 8, 8, 8)
    cfg = RefinementConfig(extension="cyclic")
    for seed, modes in enumerate(want_modes):
        walk = random_walk(seed, span=999)
        t, v = walk.times, walk.values
        data = TimeSeries(t, v - (v[-1] - v[0]) * (t - t[0]) / (t[-1] - t[0]))
        result = decompose(data, cfg)
        assert len(result.modes) == modes, seed
        total = result.final_residue.values + sum(m.imf.values for m in result.modes)
        npt.assert_allclose(total, data.values, atol=1e-9 * data.spread)


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


def _walk_with_spread(seed, spread):
    walk = random_walk(seed)
    return walk, walk.with_values(walk.values * (spread / walk.spread))


def test_overflow_raises_one_documented_error():
    walk, huge = _walk_with_spread(3, 1e307)
    # the error is the only signal: numpy must not warn on the way to it
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FloatingPointError, match="overflowed float64.*rescale"):
            decompose(huge)
        # two orders of magnitude lower nothing overflows
        _, large = _walk_with_spread(3, 1e305)
        assert len(decompose(large).modes) == len(decompose(walk).modes)
        # on a fine grid the first derivative already overflows
        fine = TimeSeries(huge.times * 1e-3, huge.values)
        with pytest.raises(FloatingPointError, match="overflowed float64.*rescale"):
            decompose(fine)


@pytest.mark.filterwarnings("error")
def test_spread_beyond_float64_raises_the_documented_error():
    # max - min of values near +-1e308 overflows; an infinite spread would
    # make every tolerance infinite and stop each level after one pass
    s = sinusoid(amplitude=1e308)
    for run in (decompose, extract_mode, lambda d: filter_series(d, FilterCriteria())):
        with pytest.raises(FloatingPointError, match="overflowed float64.*rescale"):
            run(s)


@pytest.mark.parametrize("spread", [1e300, 1e305])
def test_mode_count_is_time_scale_free(spread):
    # the spline moments and the median rule form value-over-time slopes and
    # value-time products; measured in raw time units these overflow on
    # coarse or fine grids long before the values themselves do
    walk, large = _walk_with_spread(3, spread)
    want = len(decompose(walk).modes)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for scale in (1e-3, 1.0, 1e3, 1e6):
            got = len(decompose(TimeSeries(large.times * scale, large.values)).modes)
            assert got == want, scale


@pytest.mark.filterwarnings("error")
def test_derivative_near_the_float64_limit_runs_without_warning():
    # on a fine grid the derivative of this walk comes within a factor of
    # two of the float64 limit, so its steps overflow; the extremum scan
    # compares neighbours instead, and both runs succeed without a warning
    walk = random_walk(11, span=1999)
    large = TimeSeries(walk.times * 1e-3, walk.values * (10**306.5 / walk.spread))
    assert len(decompose(large).modes) > 0
    res = filter_series(large, FilterCriteria(jump_time_blocks=((0.0, 0.02),)))
    assert res.diagnostics and np.all(np.isfinite(res.filtered.values))


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------

def test_config_rejects_bad_fields():
    with pytest.raises(ValueError):
        RefinementConfig(max_iterations=0)
    with pytest.raises(ValueError):
        RefinementConfig(delta_tolerance=-1.0)
    with pytest.raises(ValueError):
        RefinementConfig(delta_tolerance=float("nan"))
    with pytest.raises(ValueError):
        RefinementConfig(extension="mirror")
    with pytest.raises(ValueError):
        RefinementConfig(initialization="guess")


def test_config_resolves_default_tolerance():
    s = cosine_series(amplitude=10.0)
    cfg = RefinementConfig()
    assert cfg.resolve_delta_tolerance(s) == pytest.approx(1e-3 * s.spread)
    assert RefinementConfig(delta_tolerance=0.25).resolve_delta_tolerance(s) == 0.25
