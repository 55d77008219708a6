"""Iterative intrinsic-mode extraction.

One extraction level refines a residue estimate in place of the classical
sifting loop: control points are taken on the data at the current
component's extremum times, replaced by median points wherever the control
polyline flips turning direction, and interpolated with a natural cubic
spline. The component is always the pointwise difference between the data
and the residue, so every level reconstructs its input exactly.

The full decomposition peels components off the running residue until the
derivative of what remains has fewer than three extrema.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .extension import EXTENSION_KINDS, extend
from .series import TimeSeries, _overflow_checked, differentiate, find_extrema
from .spline import _time_unit, build_spline

__all__ = [
    "RefinementConfig",
    "ModeComponent",
    "DecompositionResult",
    "median_points",
    "initial_residue",
    "refine_once",
    "extract_mode",
    "decompose",
]

INITIALIZATIONS = ("derivative", "data_function")

_NOISE_FLOOR = 1e-12


@dataclass(frozen=True)
class RefinementConfig:
    """Knobs for one extraction level.

    ``delta_tolerance`` of None resolves to 1e-3 times the value spread of
    the level's input. ``initialization`` picks how the first residue guess
    is built: from the curvature turning points of the data ("derivative",
    reveals ripples riding on steep edges) or as a zero series
    ("data_function").
    """

    max_iterations: int = 12
    delta_tolerance: Optional[float] = None
    extension: str = "even"
    initialization: str = "derivative"

    def __post_init__(self) -> None:
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        if self.delta_tolerance is not None and not self.delta_tolerance >= 0.0:
            raise ValueError("delta_tolerance must be nonnegative")
        if self.extension not in EXTENSION_KINDS:
            raise ValueError(f"unknown extension kind {self.extension!r}")
        if self.initialization not in INITIALIZATIONS:
            raise ValueError(f"unknown initialization {self.initialization!r}")

    def resolve_delta_tolerance(self, data: TimeSeries) -> float:
        if self.delta_tolerance is not None:
            return self.delta_tolerance
        return 1e-3 * data.spread


@dataclass(frozen=True)
class ModeComponent:
    """One extraction level: the component, its residue, and convergence
    diagnostics.

    ``imf.values + residue.values`` equals the level's input pointwise.
    ``iterations`` counts the kept refinement passes. ``delta_history``
    records the max residue change of every pass that ran, including any
    discarded final pass; ``delta_time`` is where the last kept pass changed
    the residue most.
    """

    imf: TimeSeries
    residue: TimeSeries
    iterations: int
    delta_time: float
    delta_history: tuple[float, ...]

    @property
    def final_delta(self) -> float:
        """The max residue change of the last kept pass."""
        return self.delta_history[self.iterations - 1]

    @property
    def extrema_count(self) -> int:
        """Number of interior extrema of the component; scanned on access."""
        return len(find_extrema(self.imf))

    @property
    def value_range(self) -> tuple[float, float]:
        """The component's smallest and largest value."""
        return float(self.imf.values.min()), float(self.imf.values.max())


@dataclass(frozen=True)
class DecompositionResult:
    """All extracted components, fastest first, plus the final residue."""

    modes: tuple[ModeComponent, ...]
    final_residue: TimeSeries


def median_points(t: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Residue control points for an extended control sequence.

    A point whose turning direction disagrees in sign with either neighbour's
    is replaced by the average of itself and the chord through its two
    neighbours; a point inside a consistently-turning stretch is kept as is.
    Only points with a full three-direction window produce output, so the
    result drops the two outermost points on each side. Callers extend the
    sequence first to get medians at the true boundary points.
    """
    t = np.asarray(t, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if len(t) < 5:
        raise ValueError("median points need at least 5 points")
    # an interior point's turning direction is the sign of the cross product
    # (P_i - P_{i-1}) x (P_{i+1} - P_i). Compare signs, not products: products
    # of cross products underflow to zero or overflow at extreme value scales;
    # for the same reason time is measured in a power-of-two unit near the
    # mean spacing
    tu = t / _time_unit(t)
    dt = tu[1:] - tu[:-1]
    dv = v[1:] - v[:-1]
    sign = np.sign(dt[:-1] * dv[1:] - dv[:-1] * dt[1:])
    flip = sign[:-1] * sign[1:] < 0.0
    use_median = flip[:-1] | flip[1:]
    return t[2:-2].copy(), np.where(use_median, _chord_midpoints(t[1:-1], v[1:-1]), v[2:-2])


def _chord_midpoints(t: np.ndarray, v: np.ndarray) -> np.ndarray:
    """For each interior point, the average of its value and the chord
    through its two neighbours. Output is two shorter than the input.

    Time is measured in a power-of-two unit near the mean spacing, which
    changes no bit of the result but keeps the value-time products in range
    at any time scale."""
    t = t / _time_unit(t)
    chord = v[:-2] + (v[2:] - v[:-2]) * (t[1:-1] - t[:-2]) / (t[2:] - t[:-2])
    return 0.5 * (v[1:-1] + chord)


def initial_residue(data: TimeSeries, initialization: str = "derivative") -> Optional[TimeSeries]:
    """Starting residue estimate for one extraction level, or None when the
    level holds no component: the data has fewer than three samples or its
    first derivative has fewer than three extrema.

    "derivative": the piecewise-linear interpolant through the curvature
    turning points of the data (the derivative's extrema), held constant
    from the outermost turning point to the series edge.
    "data_function": a zero series, so refinement starts from the data
    itself.
    """
    if initialization not in INITIALIZATIONS:
        raise ValueError(f"unknown initialization {initialization!r}")
    if len(data) < 3:
        return None
    idx = find_extrema(differentiate(data)).index
    if len(idx) < 3:
        return None
    if initialization == "data_function":
        return data.with_values(np.zeros(len(data)))
    return data.with_values(np.interp(data.times, data.times[idx], data.values[idx]))


def refine_once(
    data: TimeSeries,
    current_imf: TimeSeries,
    cfg: RefinementConfig = RefinementConfig(),
) -> Optional[tuple[TimeSeries, TimeSeries, int]]:
    """One residue improvement pass.

    Control points sit on the data at the current component's extremum
    times. After boundary extension and median replacement, the natural
    cubic spline through the medians sampled on the data grid becomes the
    improved residue, and data - residue the improved component. Returns
    ``(residue, imf, control_count)``, or None when the component has fewer
    than 3 extrema and no refinement is possible.

    Raises FloatingPointError when a knot, the residue or the component
    overflows float64, which happens on data whose values come within a few
    orders of magnitude of the float64 limit; rescaling the input avoids it.
    """
    idx = find_extrema(current_imf).index
    if len(idx) < 3:
        return None
    n = len(data)
    start, end = (data.times[0], data.values[0]), (data.times[-1], data.values[-1])
    ctrl = idx
    if cfg.extension in ("even", "cyclic"):
        # the series endpoints count as the outermost control points; the
        # extension then pivots on the data boundary itself
        ctrl = np.concatenate(([0], idx, [n - 1]))
    ct, cv = data.times[ctrl], data.values[ctrl]
    # an overflow shows as a non-finite knot or residue, and is reported by
    # the checks below instead of by numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        et, ev = extend(ct, cv, cfg.extension, start_anchor=start, end_anchor=end)
        mt, mv = median_points(et, ev)
        # extending the medians the same way puts knots past both data ends
        # under every extension kind, so the spline covers the whole grid
        st, sv = extend(mt, mv, cfg.extension, start_anchor=start, end_anchor=end)
        spline = build_spline(st, _overflow_checked(sv))
        # every knot but the two extension knots past each data end is the
        # data sample at ctrl, so where the knots fall in the grid is known
        # without a search (the spline checks it)
        residue_vals = spline.evaluate_on_grid(
            data.times, knot_index=np.concatenate(([0, 0], ctrl, [n, n]))
        )
        # the data is finite, so a non-finite residue shows here too
        imf_vals = _overflow_checked(data.values - residue_vals)
    # both arrays are fresh and now known to be finite
    return data._with_fresh_values(residue_vals), data._with_fresh_values(imf_vals), len(idx)


def extract_mode(
    data: TimeSeries,
    cfg: RefinementConfig = RefinementConfig(),
) -> Optional[ModeComponent]:
    """Separate one oscillatory component from the data.

    Returns None when ``initial_residue`` does, meaning nothing oscillatory
    remains. Otherwise refinement runs until the iteration cap, until the
    largest residue change between passes drops under the tolerance, or until
    that change stops shrinking, in which case the previous, better iterate
    is kept.
    """
    residue = initial_residue(data, cfg.initialization)
    if residue is None:
        return None
    imf = data.with_values(data.values - residue.values)
    tol = cfg.resolve_delta_tolerance(data)

    kept_iter = 0
    kept_delta = 0.0
    kept_delta_time = float(data.times[0])
    history: list[float] = []

    for k in range(1, cfg.max_iterations + 1):
        step = refine_once(data, imf, cfg)
        if step is None:
            # component collapsed below 3 extrema; keep the last good iterate
            if k == 1:
                return None
            break
        new_residue, new_imf, _ = step
        change = np.abs(new_residue.values - residue.values)
        j = int(np.argmax(change))
        delta = float(change[j])
        history.append(delta)
        if k > 1 and delta >= kept_delta:
            break
        residue, imf = new_residue, new_imf
        kept_iter = k
        kept_delta = delta
        kept_delta_time = float(data.times[j])
        if delta < tol:
            break

    # a component this far under the input is round-off, not structure;
    # emitting it would make termination depend on arithmetic bit patterns
    if imf.spread < _NOISE_FLOOR * data.spread:
        return None

    return ModeComponent(
        imf=imf,
        residue=residue,
        iterations=kept_iter,
        delta_time=kept_delta_time,
        delta_history=tuple(history),
    )


def decompose(
    data: TimeSeries,
    cfg: RefinementConfig = RefinementConfig(),
    max_modes: int = 16,
) -> DecompositionResult:
    """Split the data into oscillatory components plus a trend residue.

    Components come out fastest first; extraction repeats on the running
    residue until no component remains or ``max_modes`` is reached. Summing
    every component with the final residue reproduces the input to
    round-off.
    """
    if max_modes < 1:
        raise ValueError("max_modes must be at least 1")
    reference = data.spread
    modes: list[ModeComponent] = []
    current = data
    while len(modes) < max_modes:
        # a residue flat to round-off relative to the input holds no further
        # structure; scanning it would extract arithmetic noise
        if reference > 0.0 and current.spread < _NOISE_FLOOR * reference:
            break
        mode = extract_mode(current, cfg)
        if mode is None:
            break
        modes.append(mode)
        current = mode.residue
    return DecompositionResult(tuple(modes), current)
