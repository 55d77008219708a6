"""Sampled-series primitives.

Differentiation, extremum detection, and the oscillation check that
compares a decomposed component's zero crossings with its extrema.
Everything here is a pure function of immutable inputs.
"""

from __future__ import annotations

import numbers
import operator
from dataclasses import dataclass

import numpy as np

__all__ = [
    "TimeSeries",
    "Extremum",
    "Extrema",
    "ImfReport",
    "find_extrema",
    "imf_report",
]


@dataclass(frozen=True, eq=False)
class TimeSeries:
    """A sampled signal: strictly increasing times paired with finite values.

    Both arrays are stored as read-only float64 copies, so a constructed
    series can be shared freely across threads. Series compare by identity
    and hash as objects, so records holding them compare and hash too.
    """

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        times, values = _checked_samples(self.times, self.values)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return len(self.times)

    @property
    def spread(self) -> float:
        """max(values) - min(values); zero for a constant series.
        Raises FloatingPointError when the difference overflows float64."""
        with np.errstate(over="ignore"):  # reported by the check below
            return float(_overflow_checked(self.values.max() - self.values.min()))

    def with_values(self, values: np.ndarray) -> "TimeSeries":
        """A new series on the same grid, from the caller's values.

        The new series shares this one's read-only ``times``, which are
        already validated; only the values are copied, and they pass
        ``_checked_values``.
        """
        return self._with_fresh_values(_checked_values(values, len(self.times)))

    def _minus(self, values: np.ndarray) -> "TimeSeries":
        """This series minus ``values``; FloatingPointError if it overflows float64."""
        with np.errstate(over="ignore"):  # reported by the check below
            return self._with_fresh_values(_overflow_checked(self.values - values))

    def _with_fresh_values(self, values: np.ndarray) -> "TimeSeries":
        """A new series on the same grid that takes ``values`` as it is,
        with no copy and no check, and makes it read-only.

        The caller hands over a float64 array of the grid's length that it
        has just computed, has shown to be finite, and keeps no other
        reference to.
        """
        values.flags.writeable = False
        series = object.__new__(TimeSeries)
        object.__setattr__(series, "times", self.times)
        object.__setattr__(series, "values", values)
        return series


def _checked_samples(times, values) -> tuple[np.ndarray, np.ndarray]:
    """Read-only float64 copies of ``times`` and ``values``, once they are
    shown to sample a function: both pass ``_checked_values``, equally long,
    with at least 2 samples and strictly increasing times. ValueError
    otherwise.

    A series, a spline's knots and extended control points all pass this
    one rule.
    """
    times = _checked_values(times)
    if len(times) < 2:
        raise ValueError("a series needs at least 2 samples")
    if not np.logical_and.reduce(times[1:] > times[:-1]):
        raise ValueError("times must be strictly increasing")
    return times, _checked_values(values, len(times))


def _checked_values(values, length: int | None = None) -> np.ndarray:
    """A read-only float64 copy of ``values``, once it is shown to hold
    real, finite numbers in one dimension, ``length`` of them when given.
    ValueError otherwise.

    The series rule's checks on one array: the times of a series and the
    values of one on a validated grid each pass them once.
    """
    try:
        array = np.asarray(values)
        # numpy casts a complex array to float64 with only a warning, dropping
        # the imaginary part; the dtype shows it without a pass over the data
        values = None if array.dtype.kind == "c" else array.astype(np.float64)
    except (TypeError, ValueError):  # text that is not a number, ragged nesting
        values = None
    if values is None:
        raise ValueError("times and values must be real numbers")
    if values.ndim != 1:
        raise ValueError("times and values must be one-dimensional")
    if length is not None and len(values) != length:
        raise ValueError(f"times (len {length}) and values (len {len(values)}) differ in length")
    if not np.logical_and.reduce(np.isfinite(values)):
        raise ValueError("times and values must be finite")
    values.flags.writeable = False
    return values


def _checked_pair(value, name: str) -> tuple[float, float]:
    """``value`` as a pair of floats, once it is shown to be a tuple or list
    of two items, or an array of shape (2,), whose items each pass the
    number rule. ValueError naming ``name`` otherwise.
    """
    pair = isinstance(value, (tuple, list)) and len(value) == 2
    if not (pair or isinstance(value, np.ndarray) and value.shape == (2,)):
        raise ValueError(f"{name} must be a pair of numbers, got {value!r}")
    return _checked_number(value[0], name), _checked_number(value[1], name)


def _checked_number(value, name: str, sign: str = "real", *, integer: bool = False):
    """``value`` as a Python int when ``integer``, else as a float, once it
    is shown to be a real number (an integer when ``integer``, as
    ``operator.index`` takes it) of the given ``sign``: "positive" (above
    0), "nonnegative" (at least 0), or "real" (any, NaN and infinities too).
    ValueError naming ``name`` otherwise; a numeric string is not a number.

    Every scalar parameter of the library passes this one rule.
    """
    if integer:
        try:
            number = operator.index(value)
        except TypeError:
            number = None
    else:
        number = float(value) if isinstance(value, numbers.Real) else None
    if number is None or not (sign == "real" or number > 0
                              or (number == 0 and sign == "nonnegative")):
        kind = "integer" if integer else "number"
        raise ValueError(f"{name} must be a {sign} {kind}, got {value!r}")
    return number


@dataclass(frozen=True)
class Extremum:
    """One interior local maximum or minimum of a sampled series."""

    index: int
    time: float
    value: float
    kind: str  # "max" or "min"


@dataclass(frozen=True, eq=False)
class Extrema:
    """Interior local extrema of a sampled series as parallel arrays, in
    index order: sample ``index`` (intp), its ``time`` and ``value``, and
    ``is_max`` (bool, False for a minimum).

    ``len()`` counts the extrema; ``ext[k]`` builds the k-th as one
    ``Extremum``, so the record also iterates like a list of them.
    """

    index: np.ndarray
    time: np.ndarray
    value: np.ndarray
    is_max: np.ndarray

    def __len__(self) -> int:
        return len(self.index)

    def __getitem__(self, k: int) -> Extremum:
        return Extremum(int(self.index[k]), float(self.time[k]), float(self.value[k]),
                        "max" if self.is_max[k] else "min")


@dataclass(frozen=True)
class ImfReport:
    """Oscillation diagnostics for a candidate mode component.

    ``condition1_ok`` holds when the zero-crossing and extrema counts differ
    by at most one.
    """

    zero_crossings: int
    extrema_count: int
    condition1_ok: bool


def differentiate(s: TimeSeries) -> TimeSeries:
    """First derivative sampled on the same grid.

    Central differences at interior samples, one-sided differences at the two
    ends. Exact for linear data. On smooth data the interior error is second
    order on an evenly spaced grid, but first order on an uneven one: for
    v = t**2 it is h_right - h_left, the difference of the two gaps.
    Raises FloatingPointError when a difference quotient overflows float64.
    """
    if len(s) < 3:
        raise ValueError("differentiate needs at least 3 samples")
    t, v = s.times, s.values
    d = np.empty_like(v)
    with np.errstate(over="ignore"):  # reported by the check below
        d[1:-1] = (v[2:] - v[:-2]) / (t[2:] - t[:-2])
        d[0] = (v[1] - v[0]) / (t[1] - t[0])
        d[-1] = (v[-1] - v[-2]) / (t[-1] - t[-2])
    return s._with_fresh_values(_overflow_checked(d))


_OVERFLOW_MESSAGE = ("values overflowed float64; "
                     "rescale the input, for example divide it by its spread")


def _overflow_checked(values: np.ndarray) -> np.ndarray:
    """The values unchanged; FloatingPointError if any is not finite.

    Callers pass values computed from finite data, so a non-finite one
    means the arithmetic overflowed float64.
    """
    if not np.logical_and.reduce(np.isfinite(values)):
        raise FloatingPointError(_OVERFLOW_MESSAGE)
    return values


def find_extrema(s: TimeSeries) -> Extrema:
    """Interior local maxima and minima, in index order, as an ``Extrema``
    array record; indexing it yields ``Extremum`` objects.

    A flat run of equal values flanked by lower (higher) neighbours counts as
    one maximum (minimum) at the run's middle sample, lower index winning a
    tie. Runs touching the series boundary are not extrema. The result
    alternates between maxima and minima; monotone input gives an empty
    record.

    Input with no two equal neighbours, the common case, has only
    one-sample runs: each change of step direction is an extremum at the
    sample between the two steps, and no run bounds are formed.
    """
    v = s.values
    # neighbours are compared, not subtracted, so values near the float64
    # limit cannot overflow
    moved = v[1:] != v[:-1]
    rising = v[1:] > v[:-1]
    if np.logical_and.reduce(moved):
        # no two neighbours are equal: steps k and k + 1 that change
        # direction enclose the one-sample run k + 1
        turn = (rising[:-1] != rising[1:]).nonzero()[0]
        idx = turn + 1
    else:
        moves = moved.nonzero()[0]
        rising = rising[moves]
        # consecutive nonzero steps that change direction enclose one run of
        # equal values: samples moves[k] + 1 through moves[k + 1]
        turn = (rising[:-1] != rising[1:]).nonzero()[0]
        idx = (moves[turn] + 1 + moves[turn + 1]) // 2
    return Extrema(idx, s.times[idx], v[idx], rising[turn])


def imf_report(imf: TimeSeries) -> ImfReport:
    """Check a candidate component against the oscillation-count condition.

    Counting here treats a zero-valued extremum as a degenerate cycle that
    exactly touches the mean: it is tallied as a crossing event, not as an
    oscillation extremum. Residue refinement pins the residue to the data
    at pass-through control points, so such exact-zero extrema are routine
    in refined components, and leaving them in either count would misstate
    how the component oscillates. The condition then fails precisely when
    consecutive nonzero extrema sit on the same side of zero.
    """
    # every interior touch or crossing of the zero line is one event: a pair
    # of consecutive nonzero samples whose signs differ or that have zeros
    # between them
    signs = np.sign(imf.values)
    nz = np.flatnonzero(signs)
    crossings = int(np.count_nonzero((np.diff(nz) > 1) | (signs[nz[1:]] != signs[nz[:-1]])))
    oscillating = int(np.count_nonzero(find_extrema(imf).value))
    return ImfReport(
        zero_crossings=crossings,
        extrema_count=oscillating,
        condition1_ok=abs(crossings - oscillating) <= 1,
    )
