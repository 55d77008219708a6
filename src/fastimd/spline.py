"""Piecewise cubic interpolation over strictly increasing knots.

The ends are natural (zero second derivative), or flat (zero first
derivative) on request. The moment system is tridiagonal and solved by
cyclic reduction over whole arrays, so construction stays linear in the
knot count and takes O(log n) numpy steps. Two knots degrade to the
straight line through them under natural ends.

Evaluation on a sorted grid of n points costs O(n + m log n) for m knots:
one search of the knots into the grid counts the points per interval, and
the interval coefficients are repeated over them, with no per-point search
or gather.
"""

from __future__ import annotations

from typing import Sequence, Union

import numpy as np

__all__ = ["CubicSpline", "build_spline"]

ArrayLike = Union[Sequence[float], np.ndarray]


class CubicSpline:
    """Immutable cubic interpolant through the given knots.

    The ends are natural, or flat (clamped to zero slope) when ``flat_ends``
    is true. Evaluation outside the knot span is an error; extend the knot
    set first if boundary coverage is needed.
    """

    def __init__(self, t: ArrayLike, y: ArrayLike, flat_ends: bool = False):
        t = np.array(t, dtype=np.float64, copy=True)
        y = np.array(y, dtype=np.float64, copy=True)
        if t.ndim != 1 or y.ndim != 1 or t.shape != y.shape:
            raise ValueError("knot times and values must be 1-d and equally long")
        if len(t) < 2:
            raise ValueError("a spline needs at least 2 knots")
        if not np.all(np.isfinite(t)) or not np.all(np.isfinite(y)):
            raise ValueError("knots must be finite")
        if not np.all(np.diff(t) > 0.0):
            raise ValueError("knot times must be strictly increasing")
        t.flags.writeable = False
        y.flags.writeable = False
        self.t = t
        self.y = y
        # the moments are solved and kept in a time unit near the mean knot
        # spacing, so the slopes and right-hand side stay in range however
        # the times are scaled; a power of two rescales without rounding
        self._unit = _time_unit(t)
        self._m = _solve_moments(t / self._unit, y, flat_ends)

    def evaluate(self, x: float) -> float:
        """Value of the interpolant at one point inside the knot span."""
        return float(self.evaluate_on_grid([float(x)])[0])

    def evaluate_on_grid(self, times: ArrayLike) -> np.ndarray:
        """Values at a non-decreasing sequence of points inside the knot span.

        One ``searchsorted`` of the m knots into the n grid points counts
        the points in each knot interval, and each interval's coefficients
        are repeated over its points, so evaluation costs O(n + m log n)
        with no per-point search or gather. A point on an interior knot
        belongs to the interval that starts there, a point on the last knot
        to the last interval.
        """
        times = np.asarray(times, dtype=np.float64)
        if times.ndim != 1:
            raise ValueError("grid must be one-dimensional")
        if len(times) == 0:
            return np.empty(0)
        # both checks are written to fail on NaN: the interval counts below
        # are only right on a grid that is ordered throughout
        if not np.all(np.diff(times) >= 0.0):
            raise ValueError("grid times must be increasing")
        if not (times[0] >= self.t[0] and times[-1] <= self.t[-1]):
            raise ValueError(
                f"grid [{times[0]}, {times[-1]}] outside knot span "
                f"[{self.t[0]}, {self.t[-1]}]"
            )
        t, y, m = self.t, self.y, self._m
        # points starts[i] .. starts[i + 1] - 1 lie in interval i, and the
        # last interval runs to the end of the grid
        starts = np.searchsorted(times, t[:-1], side="left")
        counts = np.diff(starts, append=len(times))
        dt = np.diff(t)

        # the moment form on interval i, exact at both knots by construction:
        # a y[i] + b y[i + 1] + ((a^3 - a) m[i] + (b^3 - b) m[i + 1]) h^2 / 6
        # with h = t[i + 1] - t[i], a = (t[i + 1] - x) / h, b = (x - t[i]) / h
        # and h^2 taken in the time unit of the moments; the in-place steps
        # keep that operation order, and each n-long buffer is dropped as
        # soon as it is used up
        h = np.repeat(dt, counts)
        a = np.repeat(t[1:], counts)
        a -= times
        a /= h
        b = np.repeat(t[:-1], counts)
        np.subtract(times, b, out=b)
        b /= h
        del h
        out = np.repeat(y[:-1], counts)
        out *= a
        term = np.repeat(y[1:], counts)
        term *= b
        out += term
        np.power(a, 3, out=term)
        term -= a
        del a
        term *= np.repeat(m[:-1], counts)
        curve = np.power(b, 3)
        curve -= b
        del b
        curve *= np.repeat(m[1:], counts)
        term += curve
        del curve
        term *= np.repeat((dt / self._unit) ** 2, counts)
        term /= 6.0
        out += term
        return out


def build_spline(t: ArrayLike, y: ArrayLike, flat_ends: bool = False) -> CubicSpline:
    """Construct a cubic spline through knots ``(t, y)``: natural ends, or
    ends clamped to zero slope when ``flat_ends`` is true.
    """
    return CubicSpline(t, y, flat_ends)


def _time_unit(t: np.ndarray) -> float:
    """The largest power of two not above the mean spacing of ``t``;
    dividing times by it is exact."""
    return float(np.ldexp(1.0, np.frexp((t[-1] - t[0]) / (len(t) - 1))[1] - 1))


def _solve_moments(t, y, flat_ends):
    """Second derivatives at the knots (the spline moments); natural ends,
    or ends clamped to zero slope when ``flat_ends`` is true."""
    n = len(t)
    h = np.diff(t)
    slope = np.diff(y) / h

    lower = np.zeros(n)
    diag = np.zeros(n)
    upper = np.zeros(n)
    rhs = np.zeros(n)

    diag[1:-1] = 2.0 * (h[:-1] + h[1:])
    lower[1:-1] = h[:-1]
    upper[1:-1] = h[1:]
    rhs[1:-1] = 6.0 * (slope[1:] - slope[:-1])

    if flat_ends:
        diag[0] = 2.0 * h[0]
        upper[0] = h[0]
        rhs[0] = 6.0 * slope[0]
        diag[-1] = 2.0 * h[-1]
        lower[-1] = h[-1]
        # 6 (0 - slope), not -6 slope: a zero slope of either sign gives +0.0
        rhs[-1] = 6.0 * (0.0 - slope[-1])
    else:
        diag[0] = 1.0
        diag[-1] = 1.0

    return _cyclic_reduction(lower, diag, upper, rhs)


def _cyclic_reduction(lower, diag, upper, rhs):
    """Solve the tridiagonal system ``lower[i] x[i-1] + diag[i] x[i] +
    upper[i] x[i+1] = rhs[i]`` (``lower[0]`` and ``upper[-1]`` are zero).

    Cyclic reduction (Hockney 1965): each level eliminates the even-row
    unknowns from the odd rows, leaving a tridiagonal system of half the
    size, until one row is left; back-substitution then recovers the even
    rows level by level. Identity rows pad the system to 2^k - 1 unknowns so
    every level halves exactly. No pivoting is needed:
    the natural and clamped moment matrices are strictly diagonally dominant,
    every reduced system stays so, and the elimination is stable.
    """
    n = len(diag)
    pad = (1 << n.bit_length()) - 1 - n
    a = np.concatenate((lower, np.zeros(pad)))
    b = np.concatenate((diag, np.ones(pad)))
    c = np.concatenate((upper, np.zeros(pad)))
    d = np.concatenate((rhs, np.zeros(pad)))
    levels = []
    while len(b) > 1:
        levels.append((a, b, c, d))
        # odd row 2j + 1 sheds x[2j] and x[2j + 2] using even rows 2j, 2j + 2
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
        # x holds this level's odd rows; the even rows follow from them
        around = np.concatenate(([0.0], x, [0.0]))
        full = np.empty(len(b))
        full[1::2] = x
        full[0::2] = (d[0::2] - a[0::2] * around[:-1] - c[0::2] * around[1:]) / b[0::2]
        x = full
    return x[:n]
