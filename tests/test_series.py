"""Tests for the TimeSeries container and the scan utilities built on it.

Covers construction invariants, finite differencing, extremum and plateau
detection, curvature turning points (the derivative's extrema), and the
oscillation report with its zero-crossing count.  Expected values for the synthetic signals were frozen
from analytic calculations: derivative sign changes for extremum counts,
cosine roots for crossing counts, second-derivative roots for inflection
times.
"""

import dataclasses
import json

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fastimd import (
    Extremum,
    FilterCriteria,
    ImfReport,
    RefinementConfig,
    TimeSeries,
    build_spline,
    decompose,
    extend,
    find_extrema,
    imf_report,
    initial_residue,
    random_walk,
    riding_wave,
    sinusoid,
    two_cosine,
)
from fastimd.series import differentiate


# ---------------------------------------------------------------------------
# construction invariants
# ---------------------------------------------------------------------------

def test_series_rejects_length_mismatch():
    with pytest.raises(ValueError):
        TimeSeries(np.arange(4.0), np.zeros(3))


def test_series_rejects_short_input():
    with pytest.raises(ValueError):
        TimeSeries(np.array([0.0]), np.array([1.0]))


def test_series_rejects_unsorted_times():
    with pytest.raises(ValueError):
        TimeSeries(np.array([0.0, 2.0, 1.0]), np.zeros(3))
    # duplicates are just as bad as reversals
    with pytest.raises(ValueError):
        TimeSeries(np.array([0.0, 1.0, 1.0]), np.zeros(3))


def test_series_rejects_non_finite():
    with pytest.raises(ValueError):
        TimeSeries(np.arange(3.0), np.array([0.0, np.nan, 1.0]))
    with pytest.raises(ValueError):
        TimeSeries(np.array([0.0, np.inf, 2.0]), np.zeros(3))


def test_series_basics():
    s = TimeSeries(np.arange(5.0), np.array([1.0, 3.0, 2.0, 5.0, 4.0]))
    assert len(s) == 5
    assert s.spread == 4.0
    r = s.with_values(np.zeros(5))
    npt.assert_array_equal(r.times, s.times)
    assert r.spread == 0.0


def test_with_values_shares_the_grid():
    s = TimeSeries(np.arange(5.0), np.array([1.0, 3.0, 2.0, 5.0, 4.0]))
    v = np.array([0.0, 1.0, 0.0, -1.0, 0.0])
    r = s.with_values(v)
    assert r.times is s.times
    npt.assert_array_equal(r.values, v)
    v[0] = 99.0  # the values are copied
    assert r.values[0] == 0.0
    assert not r.values.flags.writeable


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("values, message", [
    ([1 + 0j, 2.0, 0.0, 0.0, 0.0], "times and values must be real numbers"),
    (np.array([1 + 2j, 2.0, 0.0, 0.0, 0.0]), "times and values must be real numbers"),
    (["a", "b", "c", "d", "e"], "times and values must be real numbers"),
    (np.zeros(4), "times (len 5) and values (len 4) differ in length"),
    (np.zeros((5, 1)), "times and values must be one-dimensional"),
    ([0.0, np.nan, 0.0, 0.0, 0.0], "times and values must be finite"),
    ([0.0, 0.0, np.inf, 0.0, 0.0], "times and values must be finite"),
], ids=["complex-list", "complex-array", "text", "short", "2-d", "nan", "inf"])
def test_with_values_raises_what_a_bad_series_raises(values, message):
    # new values on a validated grid pass the series rule's checks on values
    s = TimeSeries(np.arange(5.0), np.zeros(5))
    with pytest.raises(ValueError) as err:
        s.with_values(values)
    assert str(err.value) == message


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("t, v", [
    (np.array([0.0, 1.0, 2.0]), np.array([0.0, 1 + 2j, 0.0])),
    (np.array([0.0, 1.0, 2.0]) + 0j, np.array([0.0, 1.0, 0.0])),
    ([0.0, 1.0, 2.0], [0.0, np.complex128(1 + 2j), 0.0]),
], ids=["complex-values", "complex-times", "numpy-complex-in-a-list"])
def test_complex_arrays_are_refused_as_a_list_holding_a_complex_is(t, v):
    # numpy casts a complex array to float64 with only a warning, dropping
    # the imaginary part; every caller of the series rule refuses it
    for build in (TimeSeries, build_spline, lambda t, v: extend(t, v, "even")):
        with pytest.raises(ValueError) as err:
            build(t, v)
        assert str(err.value) == "times and values must be real numbers"


def test_series_copies_are_independent():
    t = np.arange(3.0)
    v = np.array([1.0, 2.0, 3.0])
    s = TimeSeries(t, v)
    v[0] = 99.0
    assert s.values[0] == 1.0


# ---------------------------------------------------------------------------
# the number rule
# ---------------------------------------------------------------------------

def _odd(start=(-1.0, 0.0), end=(3.0, 0.0)):
    return extend([0.0, 1.0, 2.0], [0.0, 1.0, 0.0], "odd", start_anchor=start, end_anchor=end)


# every scalar parameter of the library, each with a call that sets it alone
SCALAR_PARAMETERS = {
    "RefinementConfig.max_iterations": lambda x: RefinementConfig(max_iterations=x),
    "RefinementConfig.delta_tolerance": lambda x: RefinementConfig(delta_tolerance=x),
    "decompose.max_modes": lambda x: decompose(two_cosine(), max_modes=x),
    "FilterCriteria.jump_time_blocks-lo": lambda x: FilterCriteria(jump_time_blocks=((x, 20),)),
    "FilterCriteria.jump_time_blocks-hi": lambda x: FilterCriteria(jump_time_blocks=((0, x),)),
    "FilterCriteria.amplitude_floor": lambda x: FilterCriteria(amplitude_floor=x),
    "FilterCriteria.max_passes": lambda x: FilterCriteria(max_passes=x),
    "extend.start_anchor-time": lambda x: _odd(start=(x, 0.0)),
    "extend.start_anchor-value": lambda x: _odd(start=(-1.0, x)),
    "extend.end_anchor-time": lambda x: _odd(end=(x, 0.0)),
    "extend.end_anchor-value": lambda x: _odd(end=(3.0, x)),
    "CubicSpline.evaluate.x": lambda x: build_spline([0.0, 2.0], [0.0, 1.0]).evaluate(x),
    "two_cosine.span": lambda x: two_cosine(span=x),
    "two_cosine.step": lambda x: two_cosine(step=x),
    "sinusoid.amplitude": lambda x: sinusoid(amplitude=x),
    "sinusoid.period": lambda x: sinusoid(period=x),
    "sinusoid.span": lambda x: sinusoid(span=x),
    "sinusoid.step": lambda x: sinusoid(step=x),
    "sinusoid.phase": lambda x: sinusoid(phase=x),
    "random_walk.seed": lambda x: random_walk(seed=x),
    "random_walk.span": lambda x: random_walk(span=x),
    "random_walk.step": lambda x: random_walk(step=x),
    "riding_wave.span": lambda x: riding_wave(span=x),
    "riding_wave.step": lambda x: riding_wave(step=x),
}


@pytest.mark.parametrize("parameter", SCALAR_PARAMETERS)
def test_every_scalar_parameter_rejects_a_numeric_string(parameter):
    # a number given as text is refused by name, never converted
    name = parameter.split(".")[-1].split("-")[0]
    with pytest.raises(ValueError, match=f"^{name} must "):
        SCALAR_PARAMETERS[parameter]("1")


@pytest.mark.parametrize("call, message", [
    (lambda: random_walk(seed=1.5), "seed must be a nonnegative integer, got 1.5"),
    (lambda: random_walk(seed=-1), "seed must be a nonnegative integer, got -1"),
    (lambda: sinusoid(period=float("nan")), "period must be a positive number, got nan"),
    (lambda: sinusoid(amplitude=None), "amplitude must be a real number, got None"),
], ids=["fractional-seed", "negative-seed", "nan-period", "None-amplitude"])
def test_the_number_rule_names_the_parameter_and_its_sign(call, message):
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message


# ---------------------------------------------------------------------------
# differentiate
# ---------------------------------------------------------------------------

def test_differentiate_constant_is_zero():
    s = TimeSeries(np.arange(6.0), np.full(6, 5.0))
    npt.assert_allclose(differentiate(s).values, 0.0, atol=1e-15)


def test_differentiate_needs_three_samples():
    with pytest.raises(ValueError, match="^differentiate needs at least 3 samples$"):
        differentiate(TimeSeries([0.0, 1.0], [0.0, 1.0]))


def test_differentiate_linear_is_slope():
    t = np.arange(10.0)
    s = TimeSeries(t, 2.0 * t)
    npt.assert_allclose(differentiate(s).values, 2.0, atol=1e-12)


def test_differentiate_sine_matches_cosine():
    t = np.arange(0.0, 2.0 * np.pi, 0.01)
    d = differentiate(TimeSeries(t, np.sin(t)))
    # interior points only: the one-sided ends are first order
    npt.assert_allclose(d.values[1:-1], np.cos(t[1:-1]), atol=1e-4)


def test_differentiate_is_first_order_on_an_uneven_grid():
    # for v = t**2 the central difference at an interior sample is
    # t[i+1] + t[i-1], so its error against 2 t[i] is h_right - h_left: first
    # order in the gaps, and zero only where they are equal. The times are
    # exact in binary, so every step is exact
    t = np.array([0.0, 1.0, 3.0, 3.5, 5.5, 6.0, 6.5])
    d = differentiate(TimeSeries(t, t * t)).values
    h = np.diff(t)
    npt.assert_array_equal(d[1:-1] - 2.0 * t[1:-1], h[1:] - h[:-1])
    assert (d[1:-1] != 2.0 * t[1:-1]).sum() == 4


def test_differentiate_is_linear_operator():
    rng = np.random.default_rng(7)
    t = np.sort(rng.uniform(0.0, 10.0, 40))
    t += np.arange(40) * 1e-6  # guard against duplicate draws
    for _ in range(20):
        a = rng.normal(size=40)
        b = rng.normal(size=40)
        c = rng.normal()
        lhs = differentiate(TimeSeries(t, a + c * b)).values
        rhs = differentiate(TimeSeries(t, a)).values + c * differentiate(TimeSeries(t, b)).values
        npt.assert_allclose(lhs, rhs, atol=1e-9)


# ---------------------------------------------------------------------------
# extrema
# ---------------------------------------------------------------------------

def test_single_peak():
    s = TimeSeries(np.arange(3.0), np.array([0.0, 1.0, 0.0]))
    ext = find_extrema(s)
    assert len(ext) == 1
    assert ext[0].kind == "max"
    assert ext[0].index == 1
    assert ext[0].time == 1.0
    assert ext[0].value == 1.0


def test_monotone_has_no_extrema():
    s = TimeSeries(np.arange(4.0), np.array([0.0, 1.0, 2.0, 3.0]))
    assert len(find_extrema(s)) == 0


def test_endpoints_are_not_extrema():
    s = TimeSeries(np.arange(4.0), np.array([5.0, 1.0, 2.0, 0.0]))
    ext = find_extrema(s)
    assert [e.index for e in ext] == [1, 2]
    assert [e.kind for e in ext] == ["min", "max"]


def test_plateau_reports_midpoint():
    s = TimeSeries(np.arange(4.0), np.array([0.0, 1.0, 1.0, 0.0]))
    ext = find_extrema(s)
    assert len(ext) == 1
    assert ext[0].kind == "max"
    assert ext[0].index == 1  # floor of the run midpoint

    s = TimeSeries(np.arange(5.0), np.array([0.0, 2.0, 2.0, 2.0, 0.0]))
    ext = find_extrema(s)
    assert len(ext) == 1
    assert ext[0].index == 2


def test_plateau_at_boundary_is_ignored():
    s = TimeSeries(np.arange(4.0), np.array([1.0, 1.0, 0.0, -1.0]))
    assert len(find_extrema(s)) == 0


def test_two_cosine_extremum_count():
    # frozen against a dense sign-change scan of the analytic derivative
    assert len(find_extrema(two_cosine())) == 59


def test_extrema_alternate():
    """Consecutive extrema always alternate min/max, any input."""
    rng = np.random.default_rng(42)
    for _ in range(50):
        n = rng.integers(10, 200)
        v = np.cumsum(rng.normal(size=n))
        ext = find_extrema(TimeSeries(np.arange(float(n)), v))
        kinds = [e.kind for e in ext]
        for a, b in zip(kinds, kinds[1:]):
            assert a != b
        # and every reported value matches the sample it points at
        for e in ext:
            assert v[e.index] == e.value


def _reference_extrema(v):
    """The per-sample plateau scan, kept literally as the oracle for the
    vectorised run-length scan: (index, kind) for each interior extremum."""
    n = len(v)
    out = []
    i = 0
    while i < n:
        j = i
        while j + 1 < n and v[j + 1] == v[i]:
            j += 1
        if i > 0 and j < n - 1:
            mid = (i + j) // 2
            if v[i - 1] < v[i] and v[j + 1] < v[i]:
                out.append((mid, "max"))
            elif v[i - 1] > v[i] and v[j + 1] > v[i]:
                out.append((mid, "min"))
        i = j + 1
    return out


def _check_against_reference(s):
    """The array record and the Extremum objects it yields both match the
    reference scan."""
    ref = _reference_extrema(s.values)
    idx = np.array([i for i, _ in ref], dtype=np.intp)
    ext = find_extrema(s)
    assert ext.index.dtype == np.intp and ext.is_max.dtype == bool
    npt.assert_array_equal(ext.index, idx)
    npt.assert_array_equal(ext.time, s.times[idx])
    npt.assert_array_equal(ext.value, s.values[idx])
    npt.assert_array_equal(ext.is_max, [kind == "max" for _, kind in ref])
    assert len(ext) == len(ref)
    for k, (i, kind) in enumerate(ref):
        assert ext[k] == Extremum(i, float(s.times[i]), float(s.values[i]), kind)
    assert list(ext) == [ext[k] for k in range(len(ref))]


def test_extrema_match_reference_on_plateaus():
    # small integers make plateaus common, inside and at either boundary
    rng = np.random.default_rng(11)
    for _ in range(400):
        n = int(rng.integers(2, 61))
        v = rng.integers(-2, 3, n).astype(float)
        _check_against_reference(TimeSeries(np.arange(float(n)), v))


_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(st.one_of(
    # small integers: plateaus common, inside and at either boundary
    st.lists(st.integers(-2, 2).map(float), min_size=2, max_size=60),
    # distinct values: no two neighbours equal
    st.lists(_FINITE, min_size=2, max_size=60, unique=True),
    # any finite values, near the float64 limit and subnormal included
    st.lists(_FINITE, min_size=2, max_size=60),
))
def test_extrema_match_reference_with_and_without_plateaus(values):
    v = np.array(values)
    _check_against_reference(TimeSeries(np.arange(float(len(v))), v))


@pytest.mark.filterwarnings("error")
def test_extrema_near_the_float64_limit_match_reference():
    # steps between plateaus of opposite sign overflow float64 where the
    # values do not; the scan must find the same extrema with no warning
    rng = np.random.default_rng(13)
    for _ in range(100):
        n = int(rng.integers(2, 61))
        v = rng.integers(-2, 3, n) * 8e307
        _check_against_reference(TimeSeries(np.arange(float(n)), v))


def test_extrema_match_reference_on_walks():
    for seed in range(4):
        walk = random_walk(seed)
        # derivatives have no zero steps; first components have hundreds
        component = walk.with_values(walk.values - initial_residue(walk).values)
        for s in (differentiate(walk), component):
            _check_against_reference(s)


# ---------------------------------------------------------------------------
# zero crossings, as the oscillation report counts them
# ---------------------------------------------------------------------------

def crossings(values):
    return imf_report(TimeSeries(np.arange(float(len(values))), np.array(values))).zero_crossings


def test_crossing_simple():
    assert crossings([1.0, -1.0, 1.0]) == 2


def test_no_crossings_when_one_signed():
    assert crossings([1.0, 2.0, 0.5, 3.0]) == 0


def test_crossing_through_exact_zero():
    assert crossings([1.0, 0.0, -1.0]) == 1
    # a touch of the zero line between equal signs is one event too
    assert crossings([1.0, 0.0, 1.0]) == 1
    assert crossings([1.0, 0.0, 0.0, -1.0]) == 1


def test_cosine_crossing_count():
    # 30 cos(pi t / 15) on [0, 300]: analytic roots at 7.5 + 15 k, twenty of them
    t = np.arange(301.0)
    assert crossings(30.0 * np.cos(np.pi * t / 15.0)) == 20


# ---------------------------------------------------------------------------
# curvature turning points: the derivative's extrema, which the derivative
# initialization interpolates
# ---------------------------------------------------------------------------

def test_inflection_on_line_is_empty():
    t = np.arange(10.0)
    line = TimeSeries(t, 3.0 * t + 1.0)
    assert len(find_extrema(differentiate(line))) == 0
    assert initial_residue(line) is None
    # too short to differentiate
    assert initial_residue(TimeSeries(t[:2], t[:2])) is None


def test_inflection_on_sine():
    t = np.arange(0.0, 4.0 * np.pi, 0.01)
    s = TimeSeries(t, np.sin(t))
    idx = find_extrema(differentiate(s)).index
    ct, cv = t[idx], s.values[idx]
    # the initial residue passes through the turning points
    npt.assert_array_equal(initial_residue(s).values[idx], cv)
    # inflections of sin are its roots; values there are near zero
    assert len(ct) == 3
    for x in ct:
        assert min(abs(x - np.pi), abs(x - 2.0 * np.pi), abs(x - 3.0 * np.pi)) < 0.05
    npt.assert_allclose(cv, 0.0, atol=0.05)


def test_inflection_matches_analytic_second_derivative():
    """Control times of the two-cosine signal land within one sample step of
    the roots of its analytic second derivative."""
    s = two_cosine()
    ct = s.times[find_extrema(differentiate(s)).index]
    tt = np.linspace(0.0, 900.0, 900001)
    fpp = (
        -70.0 * (np.pi / 150.0) ** 2 * np.cos(np.pi * tt / 150.0)
        - 30.0 * (np.pi / 15.0) ** 2 * np.cos(np.pi * tt / 15.0)
    )
    roots = tt[:-1][np.sign(fpp[:-1]) * np.sign(fpp[1:]) < 0]
    assert len(ct) == len(roots) == 60
    step = s.times[1] - s.times[0]
    for x in ct:
        assert np.min(np.abs(roots - x)) <= step


# ---------------------------------------------------------------------------
# oscillation report
# ---------------------------------------------------------------------------

def test_report_on_pure_cosine():
    t = np.arange(301.0)
    rep = imf_report(TimeSeries(t, 30.0 * np.cos(np.pi * t / 15.0)))
    assert rep.condition1_ok
    assert abs(rep.zero_crossings - rep.extrema_count) <= 1


def test_report_on_ramp():
    t = np.arange(10.0)
    rep = imf_report(TimeSeries(t, t - 4.5))
    assert rep.extrema_count == 0
    assert rep.zero_crossings <= 1
    assert rep.condition1_ok


def test_report_flags_one_signed_wobble():
    # two maxima, no minimum between crossings: clearly not a mode
    t = np.arange(7.0)
    v = np.array([1.0, 3.0, 2.0, 4.0, 2.0, 3.0, 1.0])
    rep = imf_report(TimeSeries(t, v))
    assert not rep.condition1_ok


@pytest.mark.parametrize(
    "values, crossings",
    [
        ([1.0, 0.0, 0.0, 1.0], 1),  # touch between equal signs
        ([1.0, 0.0, 0.0, -1.0], 1),  # crossing through a zero run
        ([0.0, 0.0, 1.0, 2.0, 1.0, 0.0], 0),  # zeros at the boundary
        ([0.0, 1.0, 0.0, 1.0, 0.0, -1.0, 0.0], 2),
    ],
)
def test_report_counts_interior_zero_runs(values, crossings):
    s = TimeSeries(np.arange(float(len(values))), np.array(values))
    assert imf_report(s).zero_crossings == crossings


def test_report_fields_are_plain_python_values():
    rep = imf_report(decompose(two_cosine()).modes[0].imf)
    assert type(rep.zero_crossings) is int
    assert type(rep.extrema_count) is int
    assert rep.condition1_ok is True
    assert ImfReport(**json.loads(json.dumps(dataclasses.asdict(rep)))) == rep
