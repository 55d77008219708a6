"""Sampled-series primitives.

Differentiation, extremum detection, and the oscillation check that
compares a decomposed component's zero crossings with its extrema.
Everything here is a pure function of immutable inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "TimeSeries",
    "Extremum",
    "Extrema",
    "ImfReport",
    "differentiate",
    "find_extrema",
    "imf_report",
]


@dataclass(frozen=True)
class TimeSeries:
    """A sampled signal: strictly increasing times paired with finite values.

    Both arrays are stored as read-only float64 copies, so a constructed
    series can be shared freely across threads.
    """

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        times = np.array(self.times, dtype=np.float64, copy=True)
        values = np.array(self.values, dtype=np.float64, copy=True)
        if times.ndim != 1 or values.ndim != 1:
            raise ValueError("times and values must be one-dimensional")
        if times.shape != values.shape:
            raise ValueError(
                f"times (len {len(times)}) and values (len {len(values)}) differ in length"
            )
        if len(times) < 2:
            raise ValueError("a series needs at least 2 samples")
        if not (np.logical_and.reduce(np.isfinite(times))
                and np.logical_and.reduce(np.isfinite(values))):
            raise ValueError("times and values must be finite")
        if not np.logical_and.reduce(times[1:] > times[:-1]):
            raise ValueError("times must be strictly increasing")
        times.flags.writeable = False
        values.flags.writeable = False
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
        """A new series on the same grid.

        The new series shares this one's read-only ``times``, which are
        already validated; only the values are copied and checked.
        """
        values = np.array(values, dtype=np.float64, copy=True)
        if values.shape != self.times.shape:
            raise ValueError(
                f"values of shape {values.shape} do not fit a grid of {len(self.times)} samples"
            )
        if not np.logical_and.reduce(np.isfinite(values)):
            raise ValueError("values must be finite")
        return self._with_fresh_values(values)

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
    ends. Exact for linear data; second-order accurate on smooth data.
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
