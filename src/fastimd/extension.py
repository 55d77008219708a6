"""Boundary extension of control-point sequences.

Two synthetic points are added at each end so that turning directions and
interpolating splines stay defined out to the data boundary. Three kinds:

even
    mirror through the first and last control point; usually the best
    default for measured data.
odd
    point reflection through supplied boundary anchors (time, value), for
    signals antisymmetric about their ends.
cyclic
    periodic wrap; requires the first and last control values to agree.

The printed formula set for the cyclic tail mixes an index pair (offset from
the third-last time, value from the third point). ``variant="consistent"``,
the default and what refinement uses, places the tail at the true periodic
offsets, which stay increasing however uneven the control gaps are;
``variant="strict"`` keeps the printed formula, whose tail times stop
increasing when the first control gap exceeds the last two together. Even
and odd are identical under both variants.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .series import _OVERFLOW_MESSAGE

__all__ = ["extend", "EXTENSION_KINDS", "EXTENSION_VARIANTS"]

EXTENSION_KINDS = ("even", "odd", "cyclic")
EXTENSION_VARIANTS = ("strict", "consistent")

_CYCLIC_RTOL = 1e-9


@np.errstate(over="ignore")
def extend(
    t: np.ndarray,
    v: np.ndarray,
    kind: str = "even",
    *,
    start_anchor: Optional[tuple[float, float]] = None,
    end_anchor: Optional[tuple[float, float]] = None,
    variant: str = "consistent",
) -> tuple[np.ndarray, np.ndarray]:
    """Extend control points ``(t, v)`` by two synthetic points per end.

    Odd extension needs ``start_anchor`` and ``end_anchor`` as the boundary
    (time, value) pairs to reflect through. Returns the extended pair with
    the original points unchanged in the middle; raises ValueError if the
    synthetic times would not remain strictly increasing, and
    FloatingPointError if a synthetic time or value is not finite, which
    happens when it overflows float64.
    """
    t = np.asarray(t, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if t.ndim != 1 or v.ndim != 1 or t.shape != v.shape:
        raise ValueError("control times and values must be 1-d and equally long")
    if not np.logical_and.reduce(t[1:] > t[:-1]):
        raise ValueError("control times must be strictly increasing")
    if kind not in EXTENSION_KINDS:
        raise ValueError(f"unknown extension kind {kind!r}")
    if variant not in EXTENSION_VARIANTS:
        raise ValueError(f"unknown extension variant {variant!r}")
    m = len(t)

    if kind == "even":
        if m < 3:
            raise ValueError("even extension needs at least 3 control points")
        head_t = [t[0] - (t[2] - t[0]), t[0] - (t[1] - t[0])]
        head_v = [v[2], v[1]]
        tail_t = [t[-1] + (t[-1] - t[-2]), t[-1] + (t[-1] - t[-3])]
        tail_v = [v[-2], v[-3]]
    elif kind == "odd":
        if m < 3:
            raise ValueError("odd extension needs at least 3 control points")
        if start_anchor is None or end_anchor is None:
            raise ValueError("odd extension needs start_anchor and end_anchor")
        ts, fs = float(start_anchor[0]), float(start_anchor[1])
        te, fe = float(end_anchor[0]), float(end_anchor[1])
        head_t = [ts - (t[1] - ts), ts - (t[0] - ts)]
        head_v = [2.0 * fs - v[1], 2.0 * fs - v[0]]
        tail_t = [te + (te - t[-1]), te + (te - t[-2])]
        tail_v = [2.0 * fe - v[-1], 2.0 * fe - v[-2]]
    else:  # cyclic
        if m < 4:
            raise ValueError("cyclic extension needs at least 4 control points")
        scale = max(abs(v[0]), abs(v[-1]), 1.0)
        if abs(v[0] - v[-1]) > _CYCLIC_RTOL * scale:
            raise ValueError(
                "cyclic extension needs equal first and last control values "
                f"(got {v[0]} and {v[-1]})"
            )
        head_t = [t[0] - (t[-1] - t[-3]), t[0] - (t[-1] - t[-2])]
        head_v = [v[-3], v[-2]]
        if variant == "strict":
            tail_t = [t[-1] + (t[1] - t[0]), t[-1] + (t[-1] - t[-3])]
        else:
            tail_t = [t[-1] + (t[1] - t[0]), t[-1] + (t[2] - t[0])]
        tail_v = [v[1], v[2]]

    # points reflected past the data ends can overflow near the float64
    # limit, which is reported here instead of by numpy warnings
    if not all(map(math.isfinite, (*head_t, *tail_t, *head_v, *tail_v))):
        raise FloatingPointError(_OVERFLOW_MESSAGE)
    out_t = np.concatenate([head_t, t, tail_t])
    out_v = np.concatenate([head_v, v, tail_v])
    if not np.logical_and.reduce(out_t[1:] > out_t[:-1]):
        raise ValueError("extension produced non-increasing times")
    return out_t, out_v
