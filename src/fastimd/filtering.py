"""Cycle-level filtering on extracted components.

Instead of working in a transform domain, the filter marks unwanted
oscillation cycles directly on the fastest component of the signal: an
extremum is marked when the duration of an adjacent monotone edge falls in a
blocked range, or when its amplitude is positive but below a floor. Each
contiguous run of marked extrema is bridged by a clamped cubic spline
through its median points, the bridged component plus its residue rebuilds
the signal, and the process repeats until nothing more is marked. The kept
part and the removed part always sum back to the original input.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .imd import RefinementConfig, _chord_midpoints, extract_mode
from .series import (TimeSeries, _checked_number, _checked_pair, _overflow_checked,
                     find_extrema)
from .spline import build_spline

__all__ = [
    "FilterCriteria",
    "FilterPass",
    "FilterResult",
    "filter_series",
]


@dataclass(frozen=True)
class FilterCriteria:
    """What to remove.

    ``jump_time_blocks`` are half-open [lo, hi) ranges of edge duration to
    block: [0, T) gives a low-pass filter, an interior range a band block.
    ``amplitude_floor`` blocks extrema with 0 < |value| < floor.
    ``max_passes`` caps the filtering passes.
    """

    jump_time_blocks: tuple[tuple[float, float], ...] = ()
    amplitude_floor: float = 0.0
    max_passes: int = 8

    def __post_init__(self) -> None:
        blocks = tuple(_checked_pair(block, "jump_time_blocks")
                       for block in self.jump_time_blocks)
        for lo, hi in blocks:
            if not lo < hi:
                raise ValueError(f"jump-time block [{lo}, {hi}) is empty")
        object.__setattr__(self, "jump_time_blocks", blocks)
        _checked_number(self.amplitude_floor, "amplitude_floor", "nonnegative")
        _checked_number(self.max_passes, "max_passes", "positive", integer=True)


@dataclass(frozen=True, eq=False)
class MarkedList:
    """A maximal contiguous run of marked extrema with its flanking anchors.

    ``knots`` holds the sample indices (intp) of the run's bridge knots: the
    anchor before, the marked extrema, and the anchor after. An anchor is
    the nearest unmarked extremum on that side, or the series endpoint
    sample when the run touches the boundary.
    """

    knots: np.ndarray

    @property
    def extrema(self) -> np.ndarray:
        """Sample indices of the marked extrema, without the anchors."""
        return self.knots[1:-1]


@dataclass(frozen=True)
class FilterPass:
    """Diagnostics for one filtering pass."""

    marked: int
    max_change: float


@dataclass(frozen=True)
class FilterResult:
    """The input and its kept part. The removed part ``blocked`` is not
    stored but derived, as ``data - filtered``, so the two parts sum to the
    input pointwise. ``diagnostics`` holds one entry per pass that bridged
    marked cycles."""

    data: TimeSeries
    filtered: TimeSeries
    diagnostics: tuple[FilterPass, ...]

    @property
    def blocked(self) -> TimeSeries:
        """The removed part, ``data - filtered``: one subtraction on each
        access. Raises FloatingPointError when it overflows float64."""
        return self.data._minus(self.filtered.values)

    @property
    def passes(self) -> int:
        """Number of passes that bridged marked cycles."""
        return len(self.diagnostics)


def mark_extrema(imf: TimeSeries, criteria: FilterCriteria) -> list[MarkedList]:
    """Group the component's extrema into maximal runs to filter out.

    An extremum is marked when the duration of either adjacent monotone
    edge, the time since the previous extremum or until the next, falls in
    any blocked [lo, hi) range, or when 0 < |value| < amplitude_floor. The
    series endpoint samples stand in for the missing outer neighbours of the
    first and last extremum.
    """
    ext = find_extrema(imf)
    padded = np.concatenate(([0], ext.index, [len(imf) - 1]))
    edges = np.diff(imf.times[padded])
    marked = np.zeros(len(ext), dtype=bool)
    for lo, hi in criteria.jump_time_blocks:
        blocked = (edges >= lo) & (edges < hi)
        marked |= blocked[:-1] | blocked[1:]
    if criteria.amplitude_floor > 0.0:
        v = np.abs(ext.value)
        marked |= (v > 0.0) & (v < criteria.amplitude_floor)

    # run k covers extrema starts[k] .. ends[k] - 1, which are padded entries
    # starts[k] + 1 .. ends[k]; its anchors are the padded entries just outside
    steps = np.diff(np.concatenate(([0], marked, [0])))
    starts = np.flatnonzero(steps == 1).tolist()
    ends = np.flatnonzero(steps == -1).tolist()
    return [MarkedList(padded[i:j + 2]) for i, j in zip(starts, ends)]


def build_passed_function(imf: TimeSeries, runs: list[MarkedList]) -> TimeSeries:
    """Bridge each marked run with a clamped spline, keep the rest verbatim.

    Knots for a run are its extrema's median points on the component (the
    extremum itself where its value is exactly zero) with the two anchors as
    end knots; the bridge's ends are flat (zero slope). The anchors are each
    run's outer neighbours in the extremum sequence, so a run carries all
    the points its medians need. Samples outside every anchor span are
    copied from the component unchanged.

    Raises FloatingPointError when a knot or a bridge overflows float64.
    """
    out = imf.values.copy()
    # an overflow shows as a non-finite knot or bridge value, and is reported
    # by the checks below instead of by numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for run in runs:
            knots = run.knots
            knot_t, knot_v = imf.times[knots], imf.values[knots]
            knot_v[1:-1] = np.where(knot_v[1:-1] == 0.0, 0.0, _chord_midpoints(knot_t, knot_v))
            bridge = build_spline(knot_t, _overflow_checked(knot_v), flat_ends=True)
            lo, hi = knots[0], knots[-1] + 1
            out[lo:hi] = _overflow_checked(bridge.evaluate_on_grid(imf.times[lo:hi]))
    # out is a fresh copy of finite values, and every bridge in it is checked
    return imf._with_fresh_values(out)


def filter_series(
    data: TimeSeries,
    criteria: FilterCriteria,
    cfg: RefinementConfig = RefinementConfig(),
) -> FilterResult:
    """Iteratively remove marked oscillation cycles from the data.

    Each pass extracts the fastest component of the current signal (always
    with derivative initialization, so edge-riding ripples are visible to the
    marking step), bridges the marked cycles, and rebuilds the signal as
    bridged component plus residue. Stops when a pass marks nothing, when
    the rebuilt signal settles (no sample moves by 1e-3 of the input's
    spread or more), or at ``max_passes``.

    Raises FloatingPointError when a bridge or a rebuilt signal overflows
    float64.
    """
    cfg = replace(cfg, initialization="derivative")
    tol = 1e-3 * data.spread
    filtered = data
    diags: list[FilterPass] = []
    for _ in range(criteria.max_passes):
        mode = extract_mode(filtered, cfg)
        if mode is None:
            break
        imf = mode.imf
        runs = mark_extrema(imf, criteria)
        if not runs:
            break
        passed = build_passed_function(imf, runs)
        with np.errstate(over="ignore"):  # reported by the check below
            rebuilt = data._with_fresh_values(
                _overflow_checked(passed.values + mode.residue.values))
        change = float(np.max(np.abs(rebuilt.values - filtered.values)))
        diags.append(FilterPass(marked=sum(len(run.extrema) for run in runs), max_change=change))
        filtered = rebuilt
        if change < tol:
            break
    return FilterResult(data, filtered, tuple(diags))
