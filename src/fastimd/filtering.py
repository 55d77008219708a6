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
from typing import Optional

import numpy as np

from .imd import RefinementConfig, _chord_midpoints, extract_mode
from .series import Extremum, TimeSeries, find_extrema
from .spline import build_spline

__all__ = [
    "FilterCriteria",
    "MarkedList",
    "FilterPass",
    "FilterResult",
    "edge_jump_times",
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
    ``settle_tolerance`` of None resolves to 1e-3 times the input spread.
    """

    jump_time_blocks: tuple[tuple[float, float], ...] = ()
    amplitude_floor: float = 0.0
    max_passes: int = 8
    settle_tolerance: Optional[float] = None

    def __post_init__(self) -> None:
        blocks = tuple((float(lo), float(hi)) for lo, hi in self.jump_time_blocks)
        for lo, hi in blocks:
            if not lo < hi:
                raise ValueError(f"jump-time block [{lo}, {hi}) is empty")
        object.__setattr__(self, "jump_time_blocks", blocks)
        if self.amplitude_floor < 0.0:
            raise ValueError("amplitude_floor must be nonnegative")
        if self.max_passes < 1:
            raise ValueError("max_passes must be at least 1")
        if self.settle_tolerance is not None and self.settle_tolerance < 0.0:
            raise ValueError("settle_tolerance must be nonnegative")

    def resolve_settle_tolerance(self, data: TimeSeries) -> float:
        if self.settle_tolerance is not None:
            return self.settle_tolerance
        return 1e-3 * data.spread


@dataclass(frozen=True)
class MarkedList:
    """A maximal contiguous run of marked extrema with its flanking anchors.

    Anchors are (time, value) of the nearest unmarked extremum on each side,
    or of the series endpoint sample when the run touches the boundary.
    """

    extrema: tuple[Extremum, ...]
    anchor_before: tuple[float, float]
    anchor_after: tuple[float, float]


@dataclass(frozen=True)
class FilterPass:
    """Diagnostics for one filtering pass."""

    marked: int
    max_change: float


@dataclass(frozen=True)
class FilterResult:
    """Kept and removed parts of the input; they sum to it pointwise."""

    filtered: TimeSeries
    blocked: TimeSeries
    passes: int
    diagnostics: tuple[FilterPass, ...]


def edge_jump_times(imf: TimeSeries) -> tuple[np.ndarray, np.ndarray]:
    """Durations of the monotone edges into and out of each extremum.

    Front edge of extremum k is t_k - t_{k-1}, back edge t_{k+1} - t_k,
    over adjacent extremum times; the series endpoints stand in for the
    missing outer neighbours of the first and last extremum. Empty arrays
    when the component has no extrema.
    """
    ext = find_extrema(imf)
    if not ext:
        return np.empty(0), np.empty(0)
    t = np.array([e.time for e in ext])
    edges = np.diff(np.concatenate(([imf.times[0]], t, [imf.times[-1]])))
    return edges[:-1].copy(), edges[1:].copy()


def mark_extrema(imf: TimeSeries, criteria: FilterCriteria) -> list[MarkedList]:
    """Group the component's extrema into maximal runs to filter out.

    An extremum is marked when either adjacent edge duration falls in any
    blocked [lo, hi) range, or when 0 < |value| < amplitude_floor.
    """
    ext = find_extrema(imf)
    if not ext:
        return []
    v = np.array([e.value for e in ext])
    front, back = edge_jump_times(imf)

    marked = np.zeros(len(ext), dtype=bool)
    for lo, hi in criteria.jump_time_blocks:
        for edges in (front, back):
            marked |= (edges >= lo) & (edges < hi)
    if criteria.amplitude_floor > 0.0:
        marked |= (np.abs(v) > 0.0) & (np.abs(v) < criteria.amplitude_floor)

    lists: list[MarkedList] = []
    i = 0
    while i < len(ext):
        if not marked[i]:
            i += 1
            continue
        j = i
        while j + 1 < len(ext) and marked[j + 1]:
            j += 1
        before = (
            (ext[i - 1].time, ext[i - 1].value)
            if i > 0
            else (float(imf.times[0]), float(imf.values[0]))
        )
        after = (
            (ext[j + 1].time, ext[j + 1].value)
            if j + 1 < len(ext)
            else (float(imf.times[-1]), float(imf.values[-1]))
        )
        lists.append(MarkedList(tuple(ext[i : j + 1]), before, after))
        i = j + 1
    return lists


def build_passed_function(imf: TimeSeries, lists: list[MarkedList]) -> TimeSeries:
    """Bridge each marked run with a clamped spline, keep the rest verbatim.

    Knots for a run are its extrema's median points on the component (the
    extremum itself where its value is exactly zero) with the two anchors as
    end knots; end slopes are clamped to zero. Samples outside every anchor
    span are copied from the component unchanged.
    """
    if not lists:
        return imf
    ext = find_extrema(imf)
    index = np.array([e.index for e in ext], dtype=np.intp)
    value = imf.values[index]
    # each extremum's neighbours in the full extremum sequence, with the
    # series endpoints standing in at either end
    seq_t = np.concatenate(([imf.times[0]], imf.times[index], [imf.times[-1]]))
    seq_v = np.concatenate(([imf.values[0]], value, [imf.values[-1]]))
    medians = np.where(value == 0.0, 0.0, _chord_midpoints(seq_t, seq_v))

    out = imf.values.copy()
    for lst in lists:
        pos = np.searchsorted(index, [e.index for e in lst.extrema])
        knot_t = np.concatenate(([lst.anchor_before[0]], seq_t[pos + 1], [lst.anchor_after[0]]))
        knot_v = np.concatenate(([lst.anchor_before[1]], medians[pos], [lst.anchor_after[1]]))
        bridge = build_spline(knot_t, knot_v, "clamped", end_slopes=(0.0, 0.0))
        mask = (imf.times >= knot_t[0]) & (imf.times <= knot_t[-1])
        out[mask] = bridge.evaluate_on_grid(imf.times[mask])
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
    the rebuilt signal settles, or at ``max_passes``.
    """
    cfg = replace(cfg, initialization="derivative")
    tol = criteria.resolve_settle_tolerance(data)
    filtered = data
    passes = 0
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
        passes += 1
        if change < tol:
            break
    blocked = data.with_values(data.values - filtered.values)
    return FilterResult(filtered, blocked, passes, tuple(diags))
