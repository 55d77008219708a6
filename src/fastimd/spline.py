"""Piecewise cubic interpolation over strictly increasing knots.

The ends are natural (zero second derivative), or flat (zero first
derivative) on request. The moment system is tridiagonal and solved by
cyclic reduction over whole arrays. The system is diagonally dominant, and
after six levels it is diagonal to float64 precision, so the reduction
stops there (Heller 1976): construction stays linear in the knot count and
takes a fixed number of numpy steps. Two knots degrade to the straight line
through them under natural ends.

Evaluation on a sorted grid of n points costs O(n + m log n) for m knots,
or O(n + m) when the caller already knows where the knots fall in the grid.
Each knot interval gets four cubic coefficients in its own normalized
variable, computed once per interval. One search of the knots into the grid
(or a check of the given positions) counts the points per interval. The
coefficients are spread to the points from those counts, as runs where the
grid is dense and by one interval index per point where it is sparse, and
Horner's rule evaluates them.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence, Union

import numpy as np

from .series import _checked_number, _checked_samples, _overflow_checked

__all__ = ["build_spline"]

ArrayLike = Union[Sequence[float], np.ndarray]

# evaluation spreads the per-interval coefficients by their run lengths on a
# grid of at least this many points per knot interval, and by an interval
# index per point on a sparser one, where run-length copies are slower
_RUN_GATHER_MIN = 8


class CubicSpline:
    """Immutable cubic interpolant through the given knots.

    The ends are natural, or flat (clamped to zero slope) when ``flat_ends``
    is true. Evaluation outside the knot span is an error; extend the knot
    set first if boundary coverage is needed. Bad knots raise the
    ValueError a ``TimeSeries`` raises for the same times and values, and
    knots whose moments overflow float64 raise FloatingPointError.
    """

    def __init__(self, t: ArrayLike, y: ArrayLike, flat_ends: bool = False, *,
                 _trusted: bool = False):
        if not _trusted:  # refinement's own extended medians
            t, y = _checked_samples(t, y)
        self.t, self.y = t, y
        # the moments are solved and kept in a time unit near the mean knot
        # spacing, so the slopes and right-hand side stay in range however
        # the times are scaled; a power of two rescales without rounding
        self._unit = _time_unit(t)
        # moments of values near the float64 limit can overflow; the check
        # reports it instead of numpy warnings and a spline that gives NaN
        with np.errstate(over="ignore", invalid="ignore"):
            self._m = _overflow_checked(_solve_moments(t / self._unit, y, flat_ends))

    def evaluate(self, x: float) -> float:
        """Value of the interpolant at one point inside the knot span; ``x``
        must be a real number."""
        return float(self.evaluate_on_grid([_checked_number(x, "x")])[0])

    def evaluate_on_grid(
        self, times: ArrayLike, *, knot_index: Optional[ArrayLike] = None,
        _trusted: bool = False,
    ) -> np.ndarray:
        """Values at a non-decreasing sequence of points inside the knot span.

        On interval i, with h = t[i + 1] - t[i] and b = (x - t[i]) / h, the
        spline is ``((c3 b + c2) b + c1) b + c0``. One ``searchsorted`` of
        the m knots into the n grid points counts the points in each
        interval, and t[i], h and the four coefficients are spread to the
        points from the counts, so evaluation costs O(n + m log n). On a
        grid of at least ``_RUN_GATHER_MIN`` (8) points per interval on
        average, each array is repeated run by run (``ndarray.repeat``);
        on a sparser one, where that is slower, one interval index per
        point is repeated from the counts and each array is gathered by it
        (``take``). Both give the same bits. A point on an
        interior knot belongs to the interval that starts there and gets
        its value exactly (b = 0); a point on the last knot gets y[-1].

        ``knot_index``, when given, replaces the search: it must equal
        ``np.searchsorted(times, self.t, side="left")``, the number of grid
        points below each knot. It is checked against that definition in
        O(m), and ValueError is raised if it fails, so evaluation then costs
        O(n + m) and gives the same bits as the search.

        A complex grid raises ValueError. Values that overflow float64 come
        back as inf or NaN, without a check: callers check what they keep.
        """
        times = np.asarray(times)
        if times.dtype.kind == "c":  # numpy would drop the imaginary part with a warning
            raise ValueError("times and values must be real numbers")
        times = times.astype(np.float64, copy=False)
        if times.ndim != 1:
            raise ValueError("grid must be one-dimensional")
        if len(times) == 0:
            return np.empty(0)
        # both checks are written to fail on NaN: the interval counts below
        # are only right on a grid that is ordered throughout. Refinement
        # passes a validated series' times and the knots' known positions
        # in them, and skips the scan and the knot_index check
        if not (_trusted or np.logical_and.reduce(times[1:] >= times[:-1])):
            raise ValueError("grid times must be increasing")
        if not (times[0] >= self.t[0] and times[-1] <= self.t[-1]):
            raise ValueError(
                f"grid [{times[0]}, {times[-1]}] outside knot span "
                f"[{self.t[0]}, {self.t[-1]}]"
            )
        t, y, m, unit = self.t, self.y, self._m, self._unit
        # points starts[i] .. starts[i + 1] - 1 lie in interval i; the points
        # on the last knot, from starts[-1] on, join the last interval and
        # are set to y[-1] at the end
        if knot_index is None:
            starts = np.searchsorted(times, t, side="left")
        elif _trusted:
            starts = knot_index
        else:
            starts = _checked_knot_index(times, t, knot_index)
        counts = starts[1:] - starts[:-1]
        counts[-1] += len(times) - starts[-1]
        if float(t[-1]) - float(t[0]) == math.inf:
            # past the float64 limit an interval length, or a point's offset
            # into its interval, can overflow. Halving the knots, the grid
            # and the unit keeps every ratio below, and is exact for every
            # time but a subnormal one
            t, times, unit = t * 0.5, times * 0.5, unit * 0.5
        # the moment form on interval i, with a = 1 - b,
        #   a y[i] + b y[i + 1] + ((a^3 - a) m[i] + (b^3 - b) m[i + 1]) hu^2 / 6
        # in powers of b, with hu the interval length in the moments' time
        # unit. Each moment is scaled by hu^2 / 6 before the two are added:
        # scaled, they are of the size of the values, while on an interval
        # shorter than the time unit 2 m[i] + m[i + 1] can overflow
        h = t[1:] - t[:-1]
        hh = (h / unit) ** 2
        lo = m[:-1] * hh / 6.0
        hi = m[1:] * hh / 6.0
        c0, c1, c2, c3 = y[:-1], (y[1:] - y[:-1]) - (2.0 * lo + hi), 3.0 * lo, hi - lo

        # each per-interval array is spread to one entry per point: by its
        # run lengths where the runs are long, else by an interval index
        if len(times) >= _RUN_GATHER_MIN * len(counts):
            gather, by = np.ndarray.repeat, counts
        else:
            gather, by = np.ndarray.take, np.arange(len(counts)).repeat(counts)
        # Horner's rule in place; each n-long buffer is dropped once used
        b = gather(t[:-1], by)
        np.subtract(times, b, out=b)
        b /= gather(h, by)
        out = gather(c3, by)
        out *= b
        out += gather(c2, by)
        out *= b
        out += gather(c1, by)
        out *= b
        out += gather(c0, by)
        # at b = 1 the rounded sum need not equal y[i + 1]; the last knot is
        # the only right end a point reaches, and it stays exact
        out[starts[-1]:] = y[-1]
        return out


# the public name of the constructor as a function
build_spline = CubicSpline


def _checked_knot_index(times: np.ndarray, t: np.ndarray, knot_index: ArrayLike) -> np.ndarray:
    """``knot_index`` as an array, once it is shown to be what
    ``np.searchsorted(times, t, side="left")`` returns for the sorted grid
    ``times``: for each knot, the number of grid points below it. O(m)."""
    k = np.asarray(knot_index)
    n = len(times)
    if k.shape != t.shape or k.dtype.kind not in "iu":
        raise ValueError(f"knot_index must hold one integer for each of the {len(t)} knots")
    if not (np.logical_and.reduce(k[1:] >= k[:-1]) and k[0] >= 0 and k[-1] <= n):
        raise ValueError(f"knot_index must be non-decreasing within [0, {n}]")
    # the grid point before knot j's position lies below the knot, and the
    # one at it does not; knots before or past the whole grid have only one
    first, stop = k.searchsorted(0, side="right"), k.searchsorted(n, side="left")
    if not (np.logical_and.reduce(times[k[first:] - 1] < t[first:])
            and np.logical_and.reduce(t[:stop] <= times[k[:stop]])):
        raise ValueError("knot_index is not the grid position of every knot")
    return k


def _time_unit(t: np.ndarray) -> float:
    """The largest power of two not above the mean spacing of ``t``;
    dividing times by it is exact.

    A span past the float64 limit is halved before it is formed, so the
    unit is then at most half the mean spacing; any power-of-two unit that
    keeps the scaled times normal gives the same result bits. Any other span
    is formed whole, since halving a subnormal time rounds.
    """
    first, last = float(t[0]), float(t[-1])
    span = last - first
    if span == math.inf:
        span = last * 0.5 - first * 0.5
    return math.ldexp(1.0, math.frexp(span / (len(t) - 1))[1] - 1)


def _solve_moments(t, y, flat_ends):
    """Second derivatives at the knots (the spline moments); natural ends,
    or ends clamped to zero slope when ``flat_ends`` is true."""
    return _cyclic_reduction(*_moment_system(t, y, flat_ends))[:len(t)]


def _moment_system(t, y, flat_ends):
    """The tridiagonal moment system as its four diagonals (lower, diag,
    upper, rhs), built at the length ``_padded_length`` gives: row i is knot
    i's equation, and identity rows with a zero right-hand side follow the
    last knot's."""
    n = len(t)
    h = t[1:] - t[:-1]
    slope = (y[1:] - y[:-1]) / h

    size = _padded_length(n)
    lower = np.zeros(size)
    diag = np.ones(size)
    upper = np.zeros(size)
    rhs = np.zeros(size)

    diag[1:n - 1] = 2.0 * (h[:-1] + h[1:])
    lower[1:n - 1] = h[:-1]
    upper[1:n - 1] = h[1:]
    rhs[1:n - 1] = 6.0 * (slope[1:] - slope[:-1])

    # natural ends keep the identity rows 0 and n - 1: zero moments there
    if flat_ends:
        diag[0] = 2.0 * h[0]
        upper[0] = h[0]
        rhs[0] = 6.0 * slope[0]
        diag[n - 1] = 2.0 * h[-1]
        lower[n - 1] = h[-1]
        # 6 (0 - slope), not -6 slope: a zero slope of either sign gives +0.0
        rhs[n - 1] = 6.0 * (0.0 - slope[-1])
    return lower, diag, upper, rhs


# cyclic reduction levels after which a moment system is diagonal to float64
# precision; see _cyclic_reduction
_LEVELS = 6


def _padded_length(n: int) -> int:
    """The least length at or above n that ``_cyclic_reduction`` takes:
    2^k - 1 up to 127, which at most ``_LEVELS`` levels reduce to one row,
    and a multiple of 2^_LEVELS less one beyond, which ``_LEVELS`` levels
    halve exactly."""
    if n < 2 << _LEVELS:
        return (1 << n.bit_length()) - 1
    return (((n >> _LEVELS) + 1) << _LEVELS) - 1


def _reduce(a, b, c, d):
    """One level of cyclic reduction of an odd-length system: odd row
    2j + 1 sheds x[2j] and x[2j + 2] using the even rows 2j and 2j + 2,
    which leaves the system of the odd rows alone."""
    alpha = -a[1::2] / b[0:-1:2]
    gamma = -c[1::2] / b[2::2]
    return (
        alpha * a[0:-1:2],
        b[1::2] + alpha * c[0:-1:2] + gamma * a[2::2],
        gamma * c[2::2],
        d[1::2] + alpha * d[0:-1:2] + gamma * d[2::2],
    )


def _cyclic_reduction(lower, diag, upper, rhs):
    """Solve the tridiagonal system ``lower[i] x[i-1] + diag[i] x[i] +
    upper[i] x[i+1] = rhs[i]`` (``lower[0]`` and ``upper[-1]`` are zero) of
    a length ``_padded_length`` gives, with δ = max (|lower| + |upper|) /
    |diag| over its rows at most 1/2.

    Cyclic reduction (Hockney 1965): each level eliminates the even-row
    unknowns from the odd rows, leaving a tridiagonal system of half the
    size; back-substitution then recovers the even rows level by level.
    Each level at least squares δ (Heller, SIAM J. Numer. Anal. 13(4),
    1976), so after ``_LEVELS`` = 6 levels δ <= 2^-64 and the reduced
    system is diagonal to float64 precision: the reduction stops there, or
    at one row, and ``x = d / b`` solves it. Dropping the last off-diagonal
    terms moves each x by at most δ max |x|, which leaves the full
    reduction's bits unless that x is far below the largest: on a
    right-hand side of isolated spikes, values near zero can differ in
    their last bits, by at most 1e-30 of max |x| in the tests. The natural
    and clamped moment matrices have δ = 1/2, so they are strictly
    diagonally dominant; every reduced system stays so, and the
    elimination is stable without pivoting.
    """
    a, b, c, d = lower, diag, upper, rhs
    levels = []
    while len(b) > 1 and len(levels) < _LEVELS:
        levels.append((a, b, c, d))
        a, b, c, d = _reduce(a, b, c, d)
    x = d / b
    for a, b, c, d in reversed(levels):
        # x holds this level's odd rows; the even rows follow from them
        around = np.concatenate(([0.0], x, [0.0]))
        full = np.empty(len(b))
        full[1::2] = x
        full[0::2] = (d[0::2] - a[0::2] * around[:-1] - c[0::2] * around[1:]) / b[0::2]
        x = full
    return x
