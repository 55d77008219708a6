"""Tests for the cubic spline interpolant.

The hand-checked value 0.6875 for the symmetric three-knot case was computed
from the moment equations directly: one interior moment M1 = -3, giving
s(0.5) = 1/2 + (1/8 - 1/2) * (-3) / 6 = 11/16.  Random-knot cases are checked
against scipy's CubicSpline, which uses an unrelated construction, and the
moments themselves against scipy's banded LU solver.
"""

import warnings

import numpy as np
import numpy.testing as npt
import pytest
from scipy.interpolate import CubicSpline as SciSpline
from scipy.linalg import solve_banded

from fastimd import build_spline, spline
from fastimd.spline import (_LEVELS, _RUN_GATHER_MIN, _cyclic_reduction, _moment_system,
                            _padded_length, _reduce, _solve_moments)


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


def _full_reduction(lower, diag, upper, rhs):
    """Cyclic reduction down to one row, as the moment solve ran before it
    stopped after ``_LEVELS`` levels: identity rows pad the system to
    2^k - 1 unknowns, and every level halves it."""
    n = len(diag)
    pad = (1 << n.bit_length()) - 1 - n
    a = np.concatenate((lower, np.zeros(pad)))
    b = np.concatenate((diag, np.ones(pad)))
    c = np.concatenate((upper, np.zeros(pad)))
    d = np.concatenate((rhs, np.zeros(pad)))
    levels = []
    while len(b) > 1:
        levels.append((a, b, c, d))
        alpha = -a[1::2] / b[0:-1:2]
        gamma = -c[1::2] / b[2::2]
        a, b, c, d = (
            alpha * a[0:-1:2],
            b[1::2] + alpha * c[0:-1:2] + gamma * a[2::2],
            gamma * c[2::2],
            d[1::2] + alpha * d[0:-1:2] + gamma * d[2::2],
        )
    x = d / b
    for a, b, c, d in reversed(levels):
        around = np.concatenate(([0.0], x, [0.0]))
        full = np.empty(len(b))
        full[1::2] = x
        full[0::2] = (d[0::2] - a[0::2] * around[:-1] - c[0::2] * around[1:]) / b[0::2]
        x = full
    return x[:n]


def _spaced_system(h, y, flat):
    """The moment system of knots ``h`` apart with values ``y``, unpadded,
    built from the spacings: knot times spread over many decades would round
    the short spacings away."""
    n = len(y)
    slope = np.diff(y) / h
    lower, diag, upper, rhs = np.zeros(n), np.ones(n), np.zeros(n), np.zeros(n)
    diag[1:-1] = 2.0 * (h[:-1] + h[1:])
    lower[1:-1] = h[:-1]
    upper[1:-1] = h[1:]
    rhs[1:-1] = 6.0 * (slope[1:] - slope[:-1])
    if flat:
        diag[0], upper[0], rhs[0] = 2.0 * h[0], h[0], 6.0 * slope[0]
        diag[-1], lower[-1], rhs[-1] = 2.0 * h[-1], h[-1], 6.0 * (0.0 - slope[-1])
    return lower, diag, upper, rhs


def _padded(system):
    """``system`` with identity rows appended up to ``_padded_length``."""
    n = len(system[1])
    fill = _padded_length(n) - n
    return tuple(np.concatenate((d, np.full(fill, v))) for d, v in zip(system, (0.0, 1.0, 0.0, 0.0)))


# every size up to 40, both sides of 127 (the largest system reduced to one
# row) and of 191 (the second padded length past it), and large systems
_SOLVE_SIZES = [*range(2, 41), 63, 64, 65, 126, 127, 128, 129, 190, 191, 192, 193, 1000, 4097,
                100_000]

# knot spacings: over 26 decades, tiny intervals next to huge ones; equal,
# where δ falls slowest (to 2^-59.8 after five levels); and within a factor 4
_SPACINGS = {
    "decades": lambda rng, n: 10.0 ** rng.uniform(-13.0, 13.0, n - 1),
    "equal": lambda rng, n: np.ones(n - 1),
    "uneven": lambda rng, n: rng.uniform(0.5, 2.0, n - 1),
}


def test_padded_lengths():
    assert [_padded_length(n) for n in (2, 3, 4, 64, 127, 128, 191, 192, 100_000)] == [
        3, 3, 7, 127, 127, 191, 191, 255, 100_031]
    for n in range(128, 2000):
        size = _padded_length(n)
        assert (size + 1) % 2**_LEVELS == 0 and 0 <= size - n < 2**_LEVELS


@pytest.mark.parametrize("flat", [False, True], ids=["natural", "flat"])
def test_moment_system_is_padded_with_identity_rows(flat):
    rng = np.random.default_rng(29)
    for n in _SOLVE_SIZES[:-1]:
        t = np.cumsum(rng.uniform(0.01, 100.0, n))
        y = rng.normal(size=n)
        got = _moment_system(t, y, flat)
        want = _padded(_spaced_system(np.diff(t), y, flat))
        for g, w in zip(got, want):
            assert g.tobytes() == w.tobytes(), n


@pytest.mark.parametrize("flat", [False, True], ids=["natural", "flat"])
@pytest.mark.parametrize("values", ["normal", "integer"])
@pytest.mark.parametrize("spacing", list(_SPACINGS))
def test_early_stop_gives_the_full_reduction_bits(spacing, values, flat):
    rng = np.random.default_rng(37 + flat)
    for n in _SOLVE_SIZES:
        h = _SPACINGS[spacing](rng, n)
        y = rng.normal(size=n) if values == "normal" else rng.integers(-3, 4, n).astype(float)
        system = _spaced_system(h, y, flat)
        got = _cyclic_reduction(*_padded(system))
        assert len(got) == _padded_length(n)
        assert got[:n].tobytes() == _full_reduction(*system).tobytes(), n
        assert not got[n:].any()


@pytest.mark.parametrize("flat", [False, True], ids=["natural", "flat"])
@pytest.mark.parametrize("spacing", list(_SPACINGS))
def test_early_stop_on_spiky_right_hand_sides(spacing, flat):
    # 5% of the right-hand side is +-1e12 and the rest zero, so many
    # moments are far below the largest: the terms the early stop drops can
    # then show in their last bits, by far less than round-off of the largest
    rng = np.random.default_rng(43 + flat)
    for n in _SOLVE_SIZES:
        lower, diag, upper, _ = _spaced_system(_SPACINGS[spacing](rng, n), np.zeros(n), flat)
        rhs = np.where(rng.random(n) < 0.05, rng.choice([-1e12, 1e12], n), 0.0)
        want = _full_reduction(lower, diag, upper, rhs)
        got = _cyclic_reduction(*_padded((lower, diag, upper, rhs)))[:n]
        assert np.max(np.abs(got - want)) <= 1e-30 * np.max(np.abs(want)), n


def _off_diagonal_ratio(a, b, c):
    """δ = max (|a| + |c|) / |b| over the rows."""
    return float(np.max((np.abs(a) + np.abs(c)) / np.abs(b)))


@pytest.mark.parametrize("flat", [False, True], ids=["natural", "flat"])
@pytest.mark.parametrize("spacing", list(_SPACINGS))
def test_system_is_diagonal_after_the_last_level(spacing, flat):
    # Heller: each level at least squares δ, from 1/2 to 2^-64 after six
    rng = np.random.default_rng(53 + flat)
    for n in [128, 129, 191, 192, 1000, 4097, 100_000]:
        h = _SPACINGS[spacing](rng, n)
        a, b, c, d = _padded(_spaced_system(h, rng.normal(size=n), flat))
        assert _off_diagonal_ratio(a, b, c) <= 0.5
        for _ in range(_LEVELS):
            a, b, c, d = _reduce(a, b, c, d)
        assert len(b) == (_padded_length(n) + 1) // 2**_LEVELS - 1
        assert _off_diagonal_ratio(a, b, c) <= 2.0**-60, n


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
    """A search per point, clipped to the last interval, then the cubic in
    b = (x - t[i]) / h in Horner form, and y[-1] on the last knot;
    ``evaluate_on_grid`` must match it bit for bit."""
    i = np.searchsorted(sp.t, x, side="right") - 1
    np.clip(i, 0, len(sp.t) - 2, out=i)
    t, y, m = sp.t, sp.y, sp._m
    h = t[i + 1] - t[i]
    b = (x - t[i]) / h
    hu = h / sp._unit
    lo = m[i] * (hu * hu) / 6.0
    hi = m[i + 1] * (hu * hu) / 6.0
    c1 = (y[i + 1] - y[i]) - (2.0 * lo + hi)
    v = (((hi - lo) * b + 3.0 * lo) * b + c1) * b + y[i]
    return np.where(x == t[-1], y[-1], v)


def _moment_form_evaluate(sp, x):
    """The moment form, as evaluation was first written: a search per point,
    then a y[i] + b y[i + 1] + ((a^3 - a) m[i] + (b^3 - b) m[i + 1]) h^2 / 6
    with a = 1 - b; equal to the Horner form up to rounding."""
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


def _dense(rng, t):
    """Irregular runs of at least ``_RUN_GATHER_MIN`` points per knot
    interval on average, with about a fifth of the intervals empty."""
    m = len(t) - 1
    counts = rng.integers(0, 2 * _RUN_GATHER_MIN + 1, m)
    counts[rng.random(m) < 0.2] = 0
    counts[rng.integers(m)] += max(0, _RUN_GATHER_MIN * m - counts.sum())
    runs = [np.sort(rng.uniform(lo, hi, k)) for lo, hi, k in zip(t[:-1], t[1:], counts)]
    return np.concatenate((*runs, t[-1:]))


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
# the kinds above, on which the Horner and moment forms were compared
_FORM_GRIDS = list(_GRIDS)
_GRIDS |= {
    # gathered by run lengths
    "dense": _dense,
    # just either side of the run-length gather's threshold
    "at_run_threshold": lambda rng, t: _inside(rng, t, _RUN_GATHER_MIN * (len(t) - 1)),
    "below_run_threshold": lambda rng, t: _inside(rng, t, _RUN_GATHER_MIN * (len(t) - 1) - 1),
}


def _grid_cases(grid, clamped):
    """Splines of 2 to 200 knots, each with a grid of the named kind."""
    rng = np.random.default_rng(41)
    for knots in [2, 2, 3, 5, 17, 60, 200]:
        t = np.cumsum(rng.uniform(0.05, 3.0, knots)) + rng.uniform(-50.0, 50.0)
        y = rng.normal(scale=10.0 ** rng.uniform(-3.0, 3.0), size=knots)
        sp = build_spline(t, y, flat_ends=clamped)
        yield sp, _GRIDS[grid](rng, t)


@pytest.mark.parametrize("clamped", [False, True], ids=["natural", "clamped"])
@pytest.mark.parametrize("grid", list(_GRIDS))
def test_grid_evaluation_is_bit_identical_to_reference(grid, clamped):
    for sp, x in _grid_cases(grid, clamped):
        got = sp.evaluate_on_grid(x)
        assert got.shape == x.shape
        assert got.tobytes() == _reference_evaluate(sp, x).tobytes(), (grid, len(sp.t))


@pytest.mark.parametrize("grid", list(_GRIDS))
def test_both_gathers_give_the_same_bits(grid, monkeypatch):
    # a threshold of 0 spreads every grid by run lengths, a huge one none
    for sp, x in _grid_cases(grid, False):
        want = sp.evaluate_on_grid(x).tobytes()
        for threshold in (0, 2**62):
            monkeypatch.setattr(spline, "_RUN_GATHER_MIN", threshold)
            assert sp.evaluate_on_grid(x).tobytes() == want, (threshold, len(sp.t))
        monkeypatch.undo()


@pytest.mark.parametrize("clamped", [False, True], ids=["natural", "clamped"])
@pytest.mark.parametrize("grid", _FORM_GRIDS)
def test_horner_form_matches_moment_form_to_round_off(grid, clamped):
    # the largest difference over these cases is 16 ulp of max |y|
    for sp, x in _grid_cases(grid, clamped):
        got = sp.evaluate_on_grid(x)
        want = _moment_form_evaluate(sp, x)
        ulp = np.spacing(np.max(np.abs(sp.y)))
        assert np.all(np.abs(got - want) <= 32.0 * ulp), (grid, len(sp.t))


@pytest.mark.parametrize("flat_ends", [False, True], ids=["natural", "flat"])
def test_last_knot_evaluates_to_its_value(flat_ends):
    # Horner's rule at b = 1 rounds, and a filter bridge is evaluated on its
    # right anchor, so the last knot's value is set, not computed
    rng = np.random.default_rng(43)
    for _ in range(200):
        knots = int(rng.integers(2, 30))
        t = np.cumsum(rng.uniform(0.05, 3.0, knots))
        y = rng.normal(scale=10.0 ** rng.uniform(-3.0, 3.0), size=knots)
        sp = build_spline(t, y, flat_ends)
        x = np.concatenate((_inside(rng, t, 5), [t[-1], t[-1]]))
        got = sp.evaluate_on_grid(x)
        assert got[-2:].tobytes() == np.repeat(y[-1], 2).tobytes()
        assert sp.evaluate(t[-1]) == y[-1]


@pytest.mark.parametrize("flat_ends", [False, True], ids=["natural", "flat"])
def test_short_intervals_near_the_float64_limit_stay_finite(flat_ends):
    # a small bump over two intervals of 2^-7 time units drives the moment
    # there to 1.4e308 in the time unit (0.5); twice that moment overflows,
    # so each moment is scaled by its interval before they are added. The
    # same shape appears among the residue splines `decompose` builds on
    # random_walk(11) scaled to a spread of 10^306.5, times scaled by 1e-3
    t = np.array([0.0, 1.0, 2.0, 2.0 + 2.0**-8, 2.0 + 2.0**-7, 3.0, 4.0])
    y = 3e306 * np.array([1.0, -1.0, 0.5, 0.501, 0.5, -1.0, 1.0])
    x = np.linspace(0.0, 4.0, 4097)  # every knot is a grid point
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sp = build_spline(t, y, flat_ends)
        got = sp.evaluate_on_grid(x)
    assert np.max(np.abs(sp._m)) > 0.5 * np.finfo(np.float64).max
    assert np.all(np.isfinite(got))
    assert got[np.searchsorted(x, t)].tobytes() == y.tobytes()


@pytest.mark.parametrize("scale, grid", [
    pytest.param(1e308, [-1.0, -0.5, 0.0, 1.0], id="span-past-the-limit"),
    pytest.param(2.0**-1074, [-1.0, 0.0, 1.0], id="smallest-subnormals"),
])
def test_hat_at_extreme_time_scales(scale, grid):
    # at 1e308 the span t[-1] - t[0] overflows, so the time unit comes from
    # half of it; the smallest subnormals would halve to zero. Either way the
    # curve is the one through [-1, 0, 1], and RuntimeWarnings are errors
    # under the project's filters
    sp = build_spline([-scale, 0.0, scale], [0.0, 1.0, 0.0])
    want = build_spline([-1.0, 0.0, 1.0], [0.0, 1.0, 0.0]).evaluate_on_grid(grid)
    assert sp.evaluate_on_grid(np.array(grid) * scale).tobytes() == want.tobytes()


@pytest.mark.filterwarnings("error")
def test_line_whose_interval_passes_the_float64_limit():
    # the one interval, 3.4e308 long, overflows when formed whole
    sp = build_spline([-1.7e308, 1.7e308], [0.0, 1.0])
    got = sp.evaluate_on_grid([-1.7e308, 0.0, 1.7e308])
    assert got.tobytes() == np.array([0.0, 0.5, 1.0]).tobytes()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("flat_ends", [False, True], ids=["natural", "flat"])
def test_intervals_past_the_float64_limit_match_the_scaled_spline(flat_ends):
    # the first interval, 1.9e308 long, overflows when formed whole. Scaling
    # times by 2^-1000 is exact here, and the scaled spline never comes near
    # the limit, so the two must agree bit for bit
    t = np.array([-1.7e308, 0.2e308, 0.6e308, 0.9e308, 1.7e308])
    y = np.array([2.0, -1.0, 0.5, 3.0, -2.0])
    x = np.linspace(-1.0, 1.0, 1001) * 1.7e308
    got = build_spline(t, y, flat_ends).evaluate_on_grid(x)
    small = 2.0**-1000
    want = build_spline(t * small, y, flat_ends).evaluate_on_grid(x * small)
    assert np.isfinite(got).all()
    assert got.tobytes() == want.tobytes()


def _knot_index_cases():
    """Splines of 2 to 200 knots, natural and flat, on irregular grids that
    hold some knots as grid points, some twice, and span the knots exactly;
    one grid of each pair is sparse and one dense."""
    rng = np.random.default_rng(47)
    for knots in [2, 3, 5, 17, 60, 200]:
        for flat_ends in (False, True):
            t = np.cumsum(rng.uniform(0.05, 3.0, knots))
            y = rng.normal(scale=10.0 ** rng.uniform(-3.0, 3.0), size=knots)
            sp = build_spline(t, y, flat_ends)
            on = t[rng.random(knots) < 0.5]
            twice = on[rng.random(len(on)) < 0.5]
            x = np.sort(np.concatenate((_inside(rng, t, 3 * knots), on, twice, [t[0], t[-1]])))
            yield sp, x
            # dense enough to be gathered by run lengths
            yield sp, np.sort(np.concatenate((_dense(rng, t), on, twice)))


def test_knot_index_gives_the_searched_bits():
    for sp, x in _knot_index_cases():
        k = np.searchsorted(x, sp.t)
        assert sp.evaluate_on_grid(x, knot_index=k).tobytes() == sp.evaluate_on_grid(x).tobytes()
        assert sp.evaluate_on_grid(x, knot_index=list(k)).tobytes() == sp.evaluate_on_grid(x).tobytes()


@pytest.mark.parametrize("knots", [
    pytest.param(lambda k: k + 1, id="one-too-high"),
    pytest.param(lambda k: k - 1, id="one-too-low"),
    pytest.param(lambda k: np.concatenate((k[:1] + 1, k[1:])), id="first-off-by-one"),
    pytest.param(lambda k: np.concatenate((k[:-1], k[-1:] - 1)), id="last-off-by-one"),
    pytest.param(lambda k: k + (np.arange(len(k)) == 2), id="middle-one-too-high"),
    pytest.param(lambda k: k - (np.arange(len(k)) == 2), id="middle-one-too-low"),
    pytest.param(lambda k: k[::-1], id="decreasing"),
    pytest.param(lambda k: np.concatenate((k[:-1], k[-1:] + 1)), id="past-the-grid"),
    pytest.param(lambda k: np.concatenate((k[:1] - 1, k[1:])), id="negative"),
    pytest.param(lambda k: k[:-1], id="too-short"),
    pytest.param(lambda k: np.concatenate((k, k[-1:])), id="too-long"),
    pytest.param(lambda k: k.astype(np.float64), id="not-integer"),
])
def test_wrong_knot_index_raises(knots):
    # the knots sit on grid points, between them and at both grid ends, so
    # moving any position by one breaks searchsorted's definition
    sp = build_spline([0.0, 1.0, 2.5, 4.0, 7.0], [0.0, 2.0, -1.0, 3.0, 1.0])
    x = np.array([0.0, 0.5, 1.0, 2.0, 3.0, 4.0, 4.0, 6.0, 7.0])
    k = np.searchsorted(x, sp.t)
    assert k.tolist() == [0, 2, 4, 5, 8]
    with pytest.raises(ValueError, match="knot_index"):
        sp.evaluate_on_grid(x, knot_index=knots(k))


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


@pytest.mark.parametrize("times", [[0.0, np.nan, 2.0], [0.0, 1.0, 1.0], [0.0, 2.0, 1.0]],
                         ids=["nan", "equal", "decreasing"])
def test_unordered_knots_and_grids_raise(times):
    with pytest.raises(ValueError):
        build_spline(times, [0.0, 1.0, 0.0])
    sp = build_spline([0.0, 1.0, 2.0], [0.0, 1.0, 0.0])
    if times[1] != times[2]:  # an equal pair is a valid grid
        with pytest.raises(ValueError):
            sp.evaluate_on_grid(np.array(times))
    # a grid ending in infinities is ordered, and outside the knot span
    with pytest.raises(ValueError):
        sp.evaluate_on_grid(np.array([0.0, np.inf, np.inf]))


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
