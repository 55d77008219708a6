"""Property tests for invariants of ``decompose`` and ``filter_series`` that
hold bit for bit.

Hypothesis draws each walk as a length, a step kind, a grid kind and a seed,
and numpy builds it from the seed: integer steps in -2..2 leave plateaus of
equal values, normal steps do not; the grid is unit-spaced or irregular.
Checked on every walk:

- telescoping: the components plus the final residue, and the kept plus the
  removed part of a filter, give back the input to 1e-9 of its spread;
- determinism: a second run gives the same bytes;
- value scaling by 2^k, k in [-800, 800], and time scaling by 2^k, k in
  [-40, 40]: multiplying by a power of two is exact at these magnitudes, so
  the outputs must scale exactly, down to the last bit.

Value shifts and scales by other factors are left out: they change the
round-off, and ``extract_mode`` can then stop a level one pass earlier or
later. Time reversal is left out too: an even-length plateau puts its
control point on its lower middle sample, which reversal moves.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from fastimd import FilterCriteria, TimeSeries, decompose, filter_series

PROFILE = settings(max_examples=25, derandomize=True, database=None, deadline=None)


@st.composite
def walks(draw):
    n = draw(st.integers(3, 500))
    integer_steps = draw(st.booleans())
    irregular = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    steps = rng.integers(-2, 3, n).astype(float) if integer_steps else rng.normal(size=n)
    times = np.cumsum(rng.uniform(0.1, 3.0, n)) if irregular else np.arange(float(n))
    return TimeSeries(times, np.cumsum(steps))


@st.composite
def criteria_for(draw, data):
    """A jump-time block of whole time units and an amplitude floor of up
    to a fifth of the spread; either may be absent."""
    lo = draw(st.integers(0, 8))
    blocks = ((float(lo), float(lo + draw(st.integers(1, 16)))),) if draw(st.booleans()) else ()
    floor = draw(st.sampled_from([0.0, 0.05, 0.2])) * data.spread
    return FilterCriteria(jump_time_blocks=blocks, amplitude_floor=floor)


def _scaled_times(data, k):
    return TimeSeries(np.ldexp(data.times, k), data.values)


def _scaled_values(data, k):
    return data.with_values(np.ldexp(data.values, k))


def _assert_bits(got, want):
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


def _assert_same_decomposition(got, want, value_exp=0, time_exp=0):
    """``got`` is ``want`` with values scaled by 2^value_exp and times by
    2^time_exp, bit for bit."""
    assert len(got.modes) == len(want.modes)
    for g, w in zip(got.modes, want.modes):
        assert g.iterations == w.iterations
        _assert_bits(g.imf.values, np.ldexp(w.imf.values, value_exp))
        _assert_bits(g.residue.values, np.ldexp(w.residue.values, value_exp))
        _assert_bits(g.delta_history, np.ldexp(w.delta_history, value_exp))
        _assert_bits(g.delta_time, np.ldexp(w.delta_time, time_exp))
    _assert_bits(got.final_residue.values, np.ldexp(want.final_residue.values, value_exp))


def _assert_same_filter(got, want, value_exp=0):
    assert [d.marked for d in got.diagnostics] == [d.marked for d in want.diagnostics]
    _assert_bits([d.max_change for d in got.diagnostics],
                 np.ldexp([d.max_change for d in want.diagnostics], value_exp))
    _assert_bits(got.filtered.values, np.ldexp(want.filtered.values, value_exp))
    _assert_bits(got.blocked.values, np.ldexp(want.blocked.values, value_exp))


@PROFILE
@given(walks())
def test_decompose_telescopes_and_is_deterministic(data):
    result = decompose(data)
    total = result.final_residue.values + sum(m.imf.values for m in result.modes)
    assert np.max(np.abs(total - data.values)) <= 1e-9 * data.spread
    _assert_same_decomposition(decompose(data), result)


@PROFILE
@given(st.data(), walks())
def test_filter_telescopes_and_is_deterministic(draw, data):
    criteria = draw.draw(criteria_for(data))
    result = filter_series(data, criteria)
    total = result.filtered.values + result.blocked.values
    assert np.max(np.abs(total - data.values)) <= 1e-9 * data.spread
    _assert_same_filter(filter_series(data, criteria), result)


@PROFILE
@given(walks(), st.integers(-800, 800))
def test_decompose_value_scaling_is_exact(data, k):
    _assert_same_decomposition(decompose(_scaled_values(data, k)), decompose(data), value_exp=k)


@PROFILE
@given(walks(), st.integers(-40, 40))
def test_decompose_time_scaling_is_exact(data, k):
    _assert_same_decomposition(decompose(_scaled_times(data, k)), decompose(data), time_exp=k)


@PROFILE
@given(st.data(), walks(), st.integers(-800, 800))
def test_filter_value_scaling_is_exact(draw, data, k):
    criteria = draw.draw(criteria_for(data))
    scaled = FilterCriteria(jump_time_blocks=criteria.jump_time_blocks,
                            amplitude_floor=float(np.ldexp(criteria.amplitude_floor, k)))
    _assert_same_filter(filter_series(_scaled_values(data, k), scaled),
                        filter_series(data, criteria), value_exp=k)


@PROFILE
@given(st.data(), walks(), st.integers(-40, 40))
def test_filter_time_scaling_is_exact(draw, data, k):
    criteria = draw.draw(criteria_for(data))
    blocks = tuple((float(np.ldexp(lo, k)), float(np.ldexp(hi, k)))
                   for lo, hi in criteria.jump_time_blocks)
    scaled = FilterCriteria(jump_time_blocks=blocks, amplitude_floor=criteria.amplitude_floor)
    _assert_same_filter(filter_series(_scaled_times(data, k), scaled),
                        filter_series(data, criteria))
