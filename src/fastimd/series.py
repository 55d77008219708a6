"""Sampled-series primitives.

Differentiation, extrema and zero-crossing detection, curvature turning
points, and the two-count oscillation check used to judge decomposed
components. Everything here is a pure function of immutable inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

__all__ = [
    "TimeSeries",
    "Extremum",
    "ImfReport",
    "differentiate",
    "find_extrema",
    "count_zero_crossings",
    "inflection_control_points",
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
        if not np.all(np.isfinite(times)) or not np.all(np.isfinite(values)):
            raise ValueError("times and values must be finite")
        if not np.all(np.diff(times) > 0.0):
            raise ValueError("times must be strictly increasing")
        times.flags.writeable = False
        values.flags.writeable = False
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return len(self.times)

    @property
    def spread(self) -> float:
        """max(values) - min(values); zero for a constant series."""
        return float(self.values.max() - self.values.min())

    def with_values(self, values: np.ndarray) -> "TimeSeries":
        """A new series on the same grid."""
        return TimeSeries(self.times, values)


@dataclass(frozen=True)
class Extremum:
    """One interior local maximum or minimum of a sampled series."""

    index: int
    time: float
    value: float
    kind: str  # "max" or "min"


@dataclass(frozen=True)
class ImfReport:
    """Oscillation diagnostics for a candidate mode component.

    ``condition1_ok`` holds when the zero-crossing and extrema counts differ
    by at most one. ``max_abs_envelope_mean`` is the largest magnitude of the
    mean of the upper and lower extrema envelopes (natural splines), or None
    when either side has fewer than two extrema.
    """

    zero_crossings: int
    extrema_count: int
    condition1_ok: bool
    max_abs_envelope_mean: Optional[float]


def differentiate(s: TimeSeries) -> TimeSeries:
    """First derivative sampled on the same grid.

    Central differences at interior samples, one-sided differences at the two
    ends. Exact for linear data; second-order accurate on smooth data.
    """
    if len(s) < 3:
        raise ValueError("differentiate needs at least 3 samples")
    t, v = s.times, s.values
    d = np.empty_like(v)
    d[1:-1] = (v[2:] - v[:-2]) / (t[2:] - t[:-2])
    d[0] = (v[1] - v[0]) / (t[1] - t[0])
    d[-1] = (v[-1] - v[-2]) / (t[-1] - t[-2])
    return TimeSeries(t, d)


def find_extrema(s: TimeSeries) -> list[Extremum]:
    """Interior local maxima and minima, in index order.

    A flat run of equal values flanked by lower (higher) neighbours counts as
    one maximum (minimum) at the run's middle sample, lower index winning a
    tie. Runs touching the series boundary are not extrema. The result
    alternates between maxima and minima; monotone input gives an empty list.
    """
    v = s.values
    steps = np.diff(v)
    moves = np.flatnonzero(steps)
    rising = steps[moves] > 0.0
    # consecutive nonzero steps that change direction enclose one run of
    # equal values: samples moves[k] + 1 through moves[k + 1]
    turn = np.flatnonzero(rising[:-1] != rising[1:])
    idx = (moves[turn] + 1 + moves[turn + 1]) // 2
    kinds = np.where(rising[turn], "max", "min").tolist()
    return list(map(Extremum, idx.tolist(), s.times[idx].tolist(), v[idx].tolist(), kinds))


def count_zero_crossings(s: TimeSeries) -> int:
    """Number of sign changes along the series.

    A run of exact zeros flanked by opposite signs counts as one crossing;
    flanked by equal signs it counts as none.
    """
    signs = np.sign(s.values)
    nonzero = signs[signs != 0.0]
    if len(nonzero) < 2:
        return 0
    return int(np.count_nonzero(nonzero[1:] != nonzero[:-1]))


def inflection_control_points(s: TimeSeries) -> tuple[np.ndarray, np.ndarray]:
    """Curvature turning points of the sampled signal.

    Returns the sample times where the first derivative has a local extremum,
    paired with the series values at those samples. A linear series yields an
    empty pair, as does any series too short to differentiate.
    """
    if len(s) < 3:
        return np.empty(0), np.empty(0)
    ext = find_extrema(differentiate(s))
    idx = np.array([e.index for e in ext], dtype=np.intp)
    return s.times[idx], s.values[idx]


def imf_report(imf: TimeSeries) -> ImfReport:
    """Check a candidate component against the oscillation-count condition
    and measure how far its extrema envelopes sit from symmetry.

    Counting here treats a zero-valued extremum as a degenerate cycle that
    exactly touches the mean: it is tallied as a crossing event, not as an
    oscillation extremum. Residue refinement pins the residue to the data
    at pass-through control points, so such exact-zero extrema are routine
    in refined components, and leaving them in either count would misstate
    how the component oscillates. The condition then fails precisely when
    consecutive nonzero extrema sit on the same side of zero.

    The envelope figure is diagnostic only; it is skipped (None) when fewer
    than two maxima or two minima exist.
    """
    from .spline import build_spline

    # every interior touch or crossing of the zero line is one event: sign
    # flips across zero runs, plus zero runs whose two flanks agree in sign
    signs = np.sign(imf.values)
    nz = np.flatnonzero(signs)
    touches = np.count_nonzero((np.diff(nz) > 1) & (signs[nz[1:]] == signs[nz[:-1]]))
    crossings = count_zero_crossings(imf) + touches
    ext = find_extrema(imf)
    maxima = [e for e in ext if e.kind == "max"]
    minima = [e for e in ext if e.kind == "min"]
    envelope_mean: Optional[float] = None
    if len(maxima) >= 2 and len(minima) >= 2:
        upper = build_spline([e.time for e in maxima], [e.value for e in maxima])
        lower = build_spline([e.time for e in minima], [e.value for e in minima])
        lo_t = max(maxima[0].time, minima[0].time)
        hi_t = min(maxima[-1].time, minima[-1].time)
        grid = imf.times[(imf.times >= lo_t) & (imf.times <= hi_t)]
        if len(grid) > 0:
            mean = 0.5 * (upper.evaluate_on_grid(grid) + lower.evaluate_on_grid(grid))
            envelope_mean = float(np.max(np.abs(mean)))
    oscillating = sum(1 for e in ext if e.value != 0.0)
    return ImfReport(
        zero_crossings=crossings,
        extrema_count=oscillating,
        condition1_ok=abs(crossings - oscillating) <= 1,
        max_abs_envelope_mean=envelope_mean,
    )
