"""Fast intrinsic mode decomposition for one-dimensional time series.

Splits a series into oscillatory mode functions plus a slow residue by
iterative spline refinement, and filters modes by extremum jump time or
amplitude.
"""

from .extension import EXTENSION_KINDS, extend
from .filtering import (
    FilterCriteria,
    FilterPass,
    FilterResult,
    MarkedList,
    build_passed_function,
    filter_series,
    mark_extrema,
)
from .imd import (
    DecompositionResult,
    ModeComponent,
    RefinementConfig,
    decompose,
    extract_mode,
    initial_residue,
    median_points,
    refine_once,
)
from .series import (
    Extrema,
    Extremum,
    ImfReport,
    TimeSeries,
    differentiate,
    find_extrema,
    imf_report,
)
from .signals import random_walk, riding_wave, sinusoid, synth, two_cosine
from .spline import CubicSpline, build_spline
from .csvio import read_csv, write_csv
from .svgplot import render_svg

__version__ = "0.1.0"

# initial_residue and refine_once are steps of the public calls; they stay
# importable here but are not part of the public surface
__all__ = [
    "CubicSpline",
    "DecompositionResult",
    "EXTENSION_KINDS",
    "Extrema",
    "Extremum",
    "FilterCriteria",
    "FilterPass",
    "FilterResult",
    "ImfReport",
    "MarkedList",
    "ModeComponent",
    "RefinementConfig",
    "TimeSeries",
    "build_passed_function",
    "build_spline",
    "decompose",
    "differentiate",
    "extend",
    "extract_mode",
    "filter_series",
    "find_extrema",
    "imf_report",
    "mark_extrema",
    "median_points",
    "random_walk",
    "read_csv",
    "render_svg",
    "riding_wave",
    "sinusoid",
    "synth",
    "two_cosine",
    "write_csv",
]
