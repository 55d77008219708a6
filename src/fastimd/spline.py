"""Piecewise cubic interpolation over strictly increasing knots.

End conditions are either natural (zero second derivative) or clamped
(prescribed first derivative at both ends). The moment system is tridiagonal
and solved with the Thomas elimination recurrence, so construction stays
linear in the knot count. Two knots degrade to the straight line through
them under natural ends.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

import numpy as np

__all__ = ["CubicSpline", "build_spline"]

ArrayLike = Union[Sequence[float], np.ndarray]


class CubicSpline:
    """Immutable cubic interpolant through the given knots.

    Evaluation outside the knot span is an error; extend the knot set first
    if boundary coverage is needed.
    """

    def __init__(
        self,
        t: ArrayLike,
        y: ArrayLike,
        end_condition: str = "natural",
        end_slopes: Optional[tuple[float, float]] = None,
    ):
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
        if end_condition == "natural":
            if end_slopes is not None:
                raise ValueError("end_slopes only apply to clamped splines")
        elif end_condition == "clamped":
            if end_slopes is None:
                raise ValueError("clamped splines need end_slopes=(start, end)")
            end_slopes = (float(end_slopes[0]), float(end_slopes[1]))
        else:
            raise ValueError(f"unknown end condition {end_condition!r}")
        t.flags.writeable = False
        y.flags.writeable = False
        self.t = t
        self.y = y
        self.end_condition = end_condition
        self.end_slopes = end_slopes
        self._m = _solve_moments(t, y, end_condition, end_slopes)

    @property
    def span(self) -> tuple[float, float]:
        return float(self.t[0]), float(self.t[-1])

    def evaluate(self, x: float) -> float:
        """Value of the interpolant at one point inside the knot span."""
        return float(self.evaluate_on_grid([float(x)])[0])

    def evaluate_on_grid(self, times: ArrayLike) -> np.ndarray:
        """Values at an increasing sequence of points inside the knot span."""
        times = np.asarray(times, dtype=np.float64)
        if times.ndim != 1:
            raise ValueError("grid must be one-dimensional")
        if len(times) == 0:
            return np.empty(0)
        if np.any(np.diff(times) < 0.0):
            raise ValueError("grid times must be increasing")
        if times[0] < self.t[0] or times[-1] > self.t[-1]:
            raise ValueError(
                f"grid [{times[0]}, {times[-1]}] outside knot span "
                f"[{self.t[0]}, {self.t[-1]}]"
            )
        idx = np.searchsorted(self.t, times, side="right") - 1
        np.clip(idx, 0, len(self.t) - 2, out=idx)
        return self._piece(idx, times)

    def _piece(self, i, x):
        # moment form on interval i: exact at both knots by construction
        t, y, m = self.t, self.y, self._m
        h = t[i + 1] - t[i]
        a = (t[i + 1] - x) / h
        b = (x - t[i]) / h
        return a * y[i] + b * y[i + 1] + ((a**3 - a) * m[i] + (b**3 - b) * m[i + 1]) * h**2 / 6.0


def build_spline(
    t: ArrayLike,
    y: ArrayLike,
    end_condition: str = "natural",
    end_slopes: Optional[tuple[float, float]] = None,
) -> CubicSpline:
    """Construct a cubic spline through knots ``(t, y)``.

    ``end_condition`` is "natural" or "clamped"; clamped splines take the
    prescribed first derivatives as ``end_slopes``.
    """
    return CubicSpline(t, y, end_condition, end_slopes)


def _solve_moments(t, y, end_condition, end_slopes):
    """Second derivatives at the knots (the spline moments)."""
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

    if end_condition == "natural":
        diag[0] = 1.0
        diag[-1] = 1.0
    else:
        s0, s1 = end_slopes
        diag[0] = 2.0 * h[0]
        upper[0] = h[0]
        rhs[0] = 6.0 * (slope[0] - s0)
        diag[-1] = 2.0 * h[-1]
        lower[-1] = h[-1]
        rhs[-1] = 6.0 * (s1 - slope[-1])

    return _thomas(lower, diag, upper, rhs)


def _thomas(lower, diag, upper, rhs):
    """Tridiagonal elimination; diag is modified nowhere, scratch is local."""
    n = len(diag)
    cp = np.zeros(n)
    dp = np.zeros(n)
    cp[0] = upper[0] / diag[0]
    dp[0] = rhs[0] / diag[0]
    for i in range(1, n):
        denom = diag[i] - lower[i] * cp[i - 1]
        cp[i] = upper[i] / denom
        dp[i] = (rhs[i] - lower[i] * dp[i - 1]) / denom
    x = np.zeros(n)
    x[-1] = dp[-1]
    for i in range(n - 2, -1, -1):
        x[i] = dp[i] - cp[i] * x[i + 1]
    return x
