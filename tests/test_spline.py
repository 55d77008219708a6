"""Tests for the cubic spline interpolant.

The hand-checked value 0.6875 for the symmetric three-knot case was computed
from the moment equations directly: one interior moment M1 = -3, giving
s(0.5) = 1/2 + (1/8 - 1/2) * (-3) / 6 = 11/16.  Random-knot cases are checked
against scipy's CubicSpline, which uses an unrelated construction, and the
moments themselves against scipy's banded LU solver.
"""

import numpy as np
import numpy.testing as npt
import pytest
from scipy.interpolate import CubicSpline as SciSpline
from scipy.linalg import solve_banded

from fastimd import build_spline
from fastimd.spline import _solve_moments


def test_three_knot_hat():
    sp = build_spline([0.0, 1.0, 2.0], [0.0, 1.0, 0.0])
    assert sp.evaluate(0.5) == pytest.approx(0.6875, abs=1e-12)
    assert sp.evaluate(1.5) == pytest.approx(0.6875, abs=1e-12)
    # exact at the knots
    assert sp.evaluate(0.0) == pytest.approx(0.0, abs=1e-15)
    assert sp.evaluate(1.0) == pytest.approx(1.0, abs=1e-15)
    assert sp.evaluate(2.0) == pytest.approx(0.0, abs=1e-15)


def test_two_knots_is_a_line():
    sp = build_spline([1.0, 3.0], [2.0, 8.0])
    for x, want in [(1.0, 2.0), (1.5, 3.5), (2.0, 5.0), (3.0, 8.0)]:
        assert sp.evaluate(x) == pytest.approx(want, abs=1e-12)


def test_collinear_knots_stay_linear():
    t = np.array([0.0, 1.0, 2.5, 4.0, 7.0])
    sp = build_spline(t, 2.0 * t - 1.0)
    x = np.linspace(0.0, 7.0, 113)
    npt.assert_allclose(sp.evaluate_on_grid(x), 2.0 * x - 1.0, atol=1e-12)


def test_interpolates_knots():
    rng = np.random.default_rng(3)
    for _ in range(30):
        n = int(rng.integers(2, 40))
        t = np.sort(rng.uniform(0.0, 100.0, n))
        t = t + np.arange(n) * 1e-3  # keep strictly increasing
        y = rng.normal(scale=10.0, size=n)
        sp = build_spline(t, y)
        got = np.array([sp.evaluate(x) for x in t])
        npt.assert_allclose(got, y, atol=1e-9)


def test_matches_scipy_natural():
    rng = np.random.default_rng(11)
    for _ in range(25):
        n = int(rng.integers(4, 30))
        t = np.sort(rng.uniform(0.0, 50.0, n)) + np.arange(n) * 1e-3
        y = rng.normal(scale=5.0, size=n)
        ours = build_spline(t, y)
        ref = SciSpline(t, y, bc_type="natural")
        x = np.sort(rng.uniform(t[0], t[-1], 60))
        npt.assert_allclose(ours.evaluate_on_grid(x), ref(x), atol=1e-8)


def test_matches_scipy_clamped():
    rng = np.random.default_rng(12)
    for _ in range(25):
        n = int(rng.integers(4, 30))
        t = np.sort(rng.uniform(0.0, 50.0, n)) + np.arange(n) * 1e-3
        y = rng.normal(scale=5.0, size=n)
        ours = build_spline(t, y, flat_ends=True)
        ref = SciSpline(t, y, bc_type=((1, 0.0), (1, 0.0)))
        x = np.sort(rng.uniform(t[0], t[-1], 60))
        npt.assert_allclose(ours.evaluate_on_grid(x), ref(x), atol=1e-8)


def _banded_moments(t, y, flat):
    """The moment equations in LAPACK banded form, solved by scipy; ``flat``
    clamps both ends to zero slope."""
    n = len(t)
    h = np.diff(t)
    slope = np.diff(y) / h
    ab = np.zeros((3, n))  # rows: upper, main and lower diagonal
    rhs = np.zeros(n)
    ab[0, 2:] = h[1:]
    ab[1, 1:-1] = 2.0 * (h[:-1] + h[1:])
    ab[2, :-2] = h[:-1]
    rhs[1:-1] = 6.0 * (slope[1:] - slope[:-1])
    if flat:
        ab[0, 1], ab[1, 0], rhs[0] = h[0], 2.0 * h[0], 6.0 * slope[0]
        ab[2, -2], ab[1, -1], rhs[-1] = h[-1], 2.0 * h[-1], -6.0 * slope[-1]
    else:
        ab[1, [0, -1]] = 1.0
    return solve_banded((1, 1), ab, rhs)


@pytest.mark.parametrize("clamped", [False, True], ids=["natural", "clamped"])
def test_moments_match_banded_solver(clamped):
    rng = np.random.default_rng(31)
    # every size up to 40, both sides of a power of two, and one large system
    for n in [*range(2, 41), 127, 128, 129, 12000]:
        # knot spacings spanning four orders of magnitude
        t = np.concatenate(([0.0], np.cumsum(10.0 ** rng.uniform(-2.0, 2.0, n - 1))))
        y = rng.normal(scale=10.0, size=n)
        got = _solve_moments(t, y, clamped)
        want = _banded_moments(t, y, clamped)
        assert got.shape == (n,)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want)), n


@pytest.mark.parametrize("flat_ends", [False, True], ids=["natural", "flat"])
def test_rescaled_times_give_the_same_curve(flat_ends):
    # rescaling time by a power of two is exact, and so is the spline built
    # on it, even where the moments in raw time units would overflow float64
    rng = np.random.default_rng(5)
    t = np.cumsum(rng.uniform(0.5, 2.0, 30))
    y = 1e290 * rng.normal(size=30)
    grid = np.linspace(t[0], t[-1], 200)
    want = build_spline(t, y, flat_ends).evaluate_on_grid(grid)
    assert np.all(np.isfinite(want))
    for scale in (2.0**-40, 2.0**40):
        sp = build_spline(t * scale, y, flat_ends)
        npt.assert_array_equal(sp.evaluate_on_grid(grid * scale), want)


def test_natural_ends_have_zero_curvature():
    t = np.array([0.0, 1.0, 2.0, 3.0, 5.0])
    y = np.array([0.0, 2.0, -1.0, 1.5, 0.5])
    sp = build_spline(t, y)
    # the one-sided stencil at step h reads the curvature near x0 + h, which
    # grows linearly from zero; extrapolating two step sizes back to h = 0
    # removes that term
    h = 1e-3
    for x0, sgn in [(t[0], 1.0), (t[-1], -1.0)]:
        def second(step):
            a = sp.evaluate(x0)
            b = sp.evaluate(x0 + sgn * step)
            c = sp.evaluate(x0 + sgn * 2.0 * step)
            return (a - 2.0 * b + c) / step**2

        at_zero = 2.0 * second(h) - second(2.0 * h)
        assert abs(at_zero) < 1e-6


def test_clamped_ends_have_prescribed_slope():
    t = np.array([0.0, 1.0, 2.0, 4.0])
    y = np.array([1.0, 0.0, 3.0, 2.0])
    sp = build_spline(t, y, flat_ends=True)
    h = 1e-6
    left = (sp.evaluate(t[0] + h) - sp.evaluate(t[0])) / h
    right = (sp.evaluate(t[-1]) - sp.evaluate(t[-1] - h)) / h
    assert abs(left) < 1e-4
    assert abs(right) < 1e-4


def test_smooth_at_interior_knots():
    """First and second derivatives agree from both sides of each knot."""
    rng = np.random.default_rng(20)
    t = np.sort(rng.uniform(0.0, 10.0, 8)) + np.arange(8) * 1e-3
    y = rng.normal(size=8)
    sp = build_spline(t, y)
    h = 1e-5
    for k in t[1:-1]:
        dl = (sp.evaluate(k) - sp.evaluate(k - h)) / h
        dr = (sp.evaluate(k + h) - sp.evaluate(k)) / h
        assert abs(dl - dr) < 1e-3
        cl = (sp.evaluate(k) - 2.0 * sp.evaluate(k - h) + sp.evaluate(k - 2 * h)) / h**2
        cr = (sp.evaluate(k + 2 * h) - 2.0 * sp.evaluate(k + h) + sp.evaluate(k)) / h**2
        assert abs(cl - cr) < 1e-2


def test_grid_evaluation_matches_pointwise():
    t = np.array([0.0, 2.0, 3.0, 7.0])
    y = np.array([1.0, -1.0, 4.0, 0.0])
    sp = build_spline(t, y)
    x = np.linspace(0.0, 7.0, 29)
    grid = sp.evaluate_on_grid(x)
    single = np.array([sp.evaluate(v) for v in x])
    npt.assert_allclose(grid, single, atol=1e-13)
    assert sp.evaluate_on_grid(np.empty(0)).shape == (0,)


def _reference_evaluate(sp, x):
    """Evaluation as first written: a search per point, clipped to the last
    interval, then eight gathers into the moment form; ``evaluate_on_grid``
    must match it bit for bit."""
    i = np.searchsorted(sp.t, x, side="right") - 1
    np.clip(i, 0, len(sp.t) - 2, out=i)
    t, y, m = sp.t, sp.y, sp._m
    h = t[i + 1] - t[i]
    a = (t[i + 1] - x) / h
    b = (x - t[i]) / h
    h = h / sp._unit
    return a * y[i] + b * y[i + 1] + ((a**3 - a) * m[i] + (b**3 - b) * m[i + 1]) * h**2 / 6.0


def _inside(rng, t, n):
    return np.sort(rng.uniform(t[0], t[-1], n))


def _samples_between_knots(rng, t):
    # a sample grid cut to the span of knots that fall between samples, as
    # a filter bridge sees it
    g = np.arange(np.floor(t[0]) - 3.0, t[-1] + 3.0, 0.37)
    return g[(g >= t[0]) & (g <= t[-1])]


_GRIDS = {
    "on_knots": lambda rng, t: np.sort(np.concatenate((_inside(rng, t, 40), t[1:-1]))),
    "repeated": lambda rng, t: np.repeat(_inside(rng, t, 30), rng.integers(1, 4, 30)),
    "whole_span": lambda rng, t: np.concatenate(([t[0]], _inside(rng, t, 50), [t[-1]])),
    "between_samples": _samples_between_knots,
    "empty": lambda rng, t: np.empty(0),
    "one_point": lambda rng, t: _inside(rng, t, 1),
    "first_knot": lambda rng, t: t[:1].copy(),
    "last_knot": lambda rng, t: t[-1:].copy(),
    # far more knots than points, so most intervals hold no point
    "empty_intervals": lambda rng, t: np.concatenate(([t[0]], _inside(rng, t, 3), [t[-1]])),
}


@pytest.mark.parametrize("clamped", [False, True], ids=["natural", "clamped"])
@pytest.mark.parametrize("grid", list(_GRIDS))
def test_grid_evaluation_is_bit_identical_to_reference(grid, clamped):
    rng = np.random.default_rng(41)
    for knots in [2, 2, 3, 5, 17, 60, 200]:
        t = np.cumsum(rng.uniform(0.05, 3.0, knots)) + rng.uniform(-50.0, 50.0)
        y = rng.normal(scale=10.0 ** rng.uniform(-3.0, 3.0), size=knots)
        sp = build_spline(t, y, flat_ends=clamped)
        x = _GRIDS[grid](rng, t)
        got = sp.evaluate_on_grid(x)
        assert got.shape == x.shape
        assert got.tobytes() == _reference_evaluate(sp, x).tobytes(), (grid, knots)


def test_rejects_bad_input():
    with pytest.raises(ValueError):
        build_spline([0.0], [1.0])
    with pytest.raises(ValueError):
        build_spline([0.0, 0.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        build_spline([1.0, 0.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        build_spline([0.0, 1.0], [np.nan, 2.0])
    with pytest.raises(ValueError):
        build_spline([0.0, 1.0, 2.0], [0.0, 1.0])


def test_rejects_evaluation_outside_span():
    sp = build_spline([0.0, 1.0, 2.0], [0.0, 1.0, 0.0])
    with pytest.raises(ValueError):
        sp.evaluate(-0.1)
    with pytest.raises(ValueError):
        sp.evaluate(2.1)
    with pytest.raises(ValueError):
        sp.evaluate_on_grid(np.array([-0.5, 1.0]))
    with pytest.raises(ValueError):
        sp.evaluate_on_grid(np.array([1.0, 0.5]))
    # NaN has no place in an ordered grid
    for grid in ([np.nan], [0.5, np.nan], [0.5, np.nan, 1.0], [np.nan, 1.0]):
        with pytest.raises(ValueError):
            sp.evaluate_on_grid(np.array(grid))
