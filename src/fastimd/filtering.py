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
from .series import Extrema, TimeSeries, _overflow_checked, find_extrema
from .spline import build_spline

__all__ = [
    "FilterCriteria",
    "MarkedList",
    "FilterPass",
    "FilterResult",
    "mark_extrema",
    "build_passed_function",
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
        blocks = tuple((float(lo), float(hi)) for lo, hi in self.jump_time_blocks)
        for lo, hi in blocks:
            if not lo < hi:
                raise ValueError(f"jump-time block [{lo}, {hi}) is empty")
        object.__setattr__(self, "jump_time_blocks", blocks)
        if not self.amplitude_floor >= 0.0:
            raise ValueError("amplitude_floor must be nonnegative")
        if self.max_passes < 1:
            raise ValueError("max_passes must be at least 1")


@dataclass(frozen=True)
class MarkedList:
    """A maximal contiguous run of marked extrema with its flanking anchors.

    ``extrema`` is the run's slice of the component's ``Extrema`` record.

    Anchors are (time, value) of the nearest unmarked extremum on each side,
    or of the series endpoint sample when the run touches the boundary.
    """

    extrema: Extrema
    anchor_before: tuple[float, float]
    anchor_after: tuple[float, float]


@dataclass(frozen=True)
class FilterPass:
    """Diagnostics for one filtering pass."""

    marked: int
    max_change: float


@dataclass(frozen=True)
class FilterResult:
    """Kept and removed parts of the input; they sum to it pointwise.
    ``diagnostics`` holds one entry per pass that bridged marked cycles."""

    filtered: TimeSeries
    blocked: TimeSeries
    diagnostics: tuple[FilterPass, ...]

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
    seq_t, seq_v = imf.times[padded], imf.values[padded]
    edges = np.diff(seq_t)
    marked = np.zeros(len(ext), dtype=bool)
    for lo, hi in criteria.jump_time_blocks:
        blocked = (edges >= lo) & (edges < hi)
        marked |= blocked[:-1] | blocked[1:]
    if criteria.amplitude_floor > 0.0:
        v = np.abs(ext.value)
        marked |= (v > 0.0) & (v < criteria.amplitude_floor)

    # run k covers extrema starts[k] .. ends[k] - 1; its anchors are the
    # padded sequence's entries just outside it
    steps = np.diff(np.concatenate(([0], marked, [0])))
    starts = np.flatnonzero(steps == 1).tolist()
    ends = np.flatnonzero(steps == -1).tolist()
    seq_t, seq_v = seq_t.tolist(), seq_v.tolist()
    return [
        MarkedList(Extrema(ext.index[i:j], ext.time[i:j], ext.value[i:j], ext.is_max[i:j]),
                   (seq_t[i], seq_v[i]), (seq_t[j + 1], seq_v[j + 1]))
        for i, j in zip(starts, ends)
    ]


def build_passed_function(imf: TimeSeries, lists: list[MarkedList]) -> TimeSeries:
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
        for lst in lists:
            ext = lst.extrema
            knot_t = np.concatenate(([lst.anchor_before[0]], ext.time, [lst.anchor_after[0]]))
            knot_v = np.concatenate(([lst.anchor_before[1]], ext.value, [lst.anchor_after[1]]))
            knot_v[1:-1] = np.where(ext.value == 0.0, 0.0, _chord_midpoints(knot_t, knot_v))
            bridge = build_spline(knot_t, _overflow_checked(knot_v), flat_ends=True)
            # the grid is sorted, so the samples inside the anchors are a slice
            lo = np.searchsorted(imf.times, knot_t[0], side="left")
            hi = np.searchsorted(imf.times, knot_t[-1], side="right")
            out[lo:hi] = _overflow_checked(bridge.evaluate_on_grid(imf.times[lo:hi]))
    return imf.with_values(out)


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
    """
    cfg = replace(cfg, initialization="derivative")
    tol = 1e-3 * data.spread
    filtered = data
    diags: list[FilterPass] = []
    for _ in range(criteria.max_passes):
        mode = extract_mode(filtered, cfg)
        if mode is None:
            break
        lists = mark_extrema(mode.imf, criteria)
        if not lists:
            break
        passed = build_passed_function(mode.imf, lists)
        rebuilt = data.with_values(passed.values + mode.residue.values)
        change = float(np.max(np.abs(rebuilt.values - filtered.values)))
        diags.append(FilterPass(marked=sum(len(l.extrema) for l in lists), max_change=change))
        filtered = rebuilt
        if change < tol:
            break
    blocked = data.with_values(data.values - filtered.values)
    return FilterResult(filtered, blocked, tuple(diags))
