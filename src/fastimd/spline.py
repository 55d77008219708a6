"""Piecewise cubic interpolation over strictly increasing knots.

The ends are natural (zero second derivative), or flat (zero first
derivative) on request. The moment system is tridiagonal and solved by
cyclic reduction over whole arrays, so construction stays linear in the
knot count and takes O(log n) numpy steps. Two knots degrade to the
straight line through them under natural ends.

Evaluation on a sorted grid of n points costs O(n + m log n) for m knots,
or O(n + m) when the caller already knows where the knots fall in the grid.
Each knot interval gets four cubic coefficients in its own normalized
variable, computed once per interval. One search of the knots into the grid
(or a check of the given positions) counts the points per interval; one
interval index per point, repeated from those counts, gathers the
coefficients, and Horner's rule evaluates them.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence, Union

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
        if not np.isfinite(t).all() or not np.isfinite(y).all():
            raise ValueError("knots must be finite")
        if not (t[1:] > t[:-1]).all():
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

    def evaluate_on_grid(
        self, times: ArrayLike, *, knot_index: Optional[ArrayLike] = None
    ) -> np.ndarray:
        """Values at a non-decreasing sequence of points inside the knot span.

        On interval i, with h = t[i + 1] - t[i] and b = (x - t[i]) / h, the
        spline is ``((c3 b + c2) b + c1) b + c0``. One ``searchsorted`` of
        the m knots into the n grid points counts the points in each
        interval, one interval index per point is repeated from the counts,
        and a gather by that index fetches t[i], h and the four
        coefficients, so evaluation costs O(n + m log n). A point on an
        interior knot belongs to the interval that starts there and gets
        its value exactly (b = 0); a point on the last knot gets y[-1].

        ``knot_index``, when given, replaces the search: it must equal
        ``np.searchsorted(times, self.t, side="left")``, the number of grid
        points below each knot. It is checked against that definition in
        O(m), and ValueError is raised if it fails, so evaluation then costs
        O(n + m) and gives the same bits as the search.
        """
        times = np.asarray(times, dtype=np.float64)
        if times.ndim != 1:
            raise ValueError("grid must be one-dimensional")
        if len(times) == 0:
            return np.empty(0)
        # both checks are written to fail on NaN: the interval counts below
        # are only right on a grid that is ordered throughout
        if not (times[1:] >= times[:-1]).all():
            raise ValueError("grid times must be increasing")
        if not (times[0] >= self.t[0] and times[-1] <= self.t[-1]):
            raise ValueError(
                f"grid [{times[0]}, {times[-1]}] outside knot span "
                f"[{self.t[0]}, {self.t[-1]}]"
            )
        t, y, m = self.t, self.y, self._m
        # the moment form on interval i, with a = 1 - b,
        #   a y[i] + b y[i + 1] + ((a^3 - a) m[i] + (b^3 - b) m[i + 1]) hu^2 / 6
        # in powers of b, with hu the interval length in the moments' time
        # unit. Each moment is scaled by hu^2 / 6 before the two are added:
        # scaled, they are of the size of the values, while on an interval
        # shorter than the time unit 2 m[i] + m[i + 1] can overflow
        h = t[1:] - t[:-1]
        hh = (h / self._unit) ** 2
        lo = m[:-1] * hh / 6.0
        hi = m[1:] * hh / 6.0
        c0, c1, c2, c3 = y[:-1], (y[1:] - y[:-1]) - (2.0 * lo + hi), 3.0 * lo, hi - lo
        # points starts[i] .. starts[i + 1] - 1 lie in interval i; the points
        # on the last knot, from starts[-1] on, join the last interval and
        # are set to y[-1] at the end
        if knot_index is None:
            starts = np.searchsorted(times, t, side="left")
        else:
            starts = _checked_knot_index(times, t, knot_index)
        counts = starts[1:] - starts[:-1]
        counts[-1] += len(times) - starts[-1]
        which = np.repeat(np.arange(len(h)), counts)

        # Horner's rule in place; each n-long buffer is dropped once used
        b = t.take(which)
        np.subtract(times, b, out=b)
        b /= h.take(which)
        out = c3.take(which)
        out *= b
        out += c2.take(which)
        out *= b
        out += c1.take(which)
        out *= b
        out += c0.take(which)
        # at b = 1 the rounded sum need not equal y[i + 1]; the last knot is
        # the only right end a point reaches, and it stays exact
        out[starts[-1]:] = y[-1]
        return out


def build_spline(t: ArrayLike, y: ArrayLike, flat_ends: bool = False) -> CubicSpline:
    """Construct a cubic spline through knots ``(t, y)``: natural ends, or
    ends clamped to zero slope when ``flat_ends`` is true.
    """
    return CubicSpline(t, y, flat_ends)


def _checked_knot_index(times: np.ndarray, t: np.ndarray, knot_index: ArrayLike) -> np.ndarray:
    """``knot_index`` as an array, once it is shown to be what
    ``np.searchsorted(times, t, side="left")`` returns for the sorted grid
    ``times``: for each knot, the number of grid points below it. O(m)."""
    k = np.asarray(knot_index)
    n = len(times)
    if k.shape != t.shape or k.dtype.kind not in "iu":
        raise ValueError(f"knot_index must hold one integer for each of the {len(t)} knots")
    if not ((k[1:] >= k[:-1]).all() and k[0] >= 0 and k[-1] <= n):
        raise ValueError(f"knot_index must be non-decreasing within [0, {n}]")
    # the grid point before knot j's position lies below the knot, and the
    # one at it does not; knots before or past the whole grid have only one
    first, stop = k.searchsorted(0, side="right"), k.searchsorted(n, side="left")
    if not ((times[k[first:] - 1] < t[first:]).all() and (t[:stop] <= times[k[:stop]]).all()):
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
    n = len(t)
    h = t[1:] - t[:-1]
    slope = (y[1:] - y[:-1]) / h

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
