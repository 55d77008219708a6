"""Deterministic synthetic test signals.

Every generator is a pure function of its parameters; the random walk is
fully determined by its seed.
"""

from __future__ import annotations

import numpy as np

from .series import TimeSeries

__all__ = ["two_cosine", "sinusoid", "random_walk", "riding_wave", "synth", "SYNTH_KINDS"]


def _grid(span: float, step: float) -> np.ndarray:
    if step <= 0.0:
        raise ValueError("step must be positive")
    if span <= 0.0:
        raise ValueError("span must be positive")
    n = int(round(span / step))
    return np.arange(n + 1) * step


def two_cosine(span: float = 900.0, step: float = 1.0) -> TimeSeries:
    """Slow plus fast cosine: 70 cos(pi t / 150) + 30 cos(pi t / 15).

    The fast term rides on the slow one at a tenth of its period; a clean
    benchmark for separating two oscillation scales.
    """
    t = _grid(span, step)
    return TimeSeries(t, 70.0 * np.cos(np.pi * t / 150.0) + 30.0 * np.cos(np.pi * t / 15.0))


def sinusoid(
    amplitude: float = 30.0,
    period: float = 30.0,
    span: float = 300.0,
    step: float = 1.0,
    phase: float = 0.0,
) -> TimeSeries:
    """A cos(2 pi t / period + phase) on a uniform grid."""
    if period <= 0.0:
        raise ValueError("period must be positive")
    t = _grid(span, step)
    return TimeSeries(t, amplitude * np.cos(2.0 * np.pi * t / period + phase))


def random_walk(seed: int = 0, span: float = 1999.0, step: float = 1.0) -> TimeSeries:
    """Cumulative sum of standard normal increments; bit-identical per seed."""
    t = _grid(span, step)
    rng = np.random.default_rng(seed)
    return TimeSeries(t, np.cumsum(rng.standard_normal(len(t))))


def riding_wave(span: float = 600.0, step: float = 0.5) -> TimeSeries:
    """A small fast ripple riding a large slow oscillation.

    70 cos(2 pi t / 300) + 2 sin(2 pi t / 30). The ripple's slope never
    overcomes the slow wave's on its steep edges, so the raw signal has no
    extrema there, while the ripple's curvature dominates everywhere and
    keeps it visible to derivative-based initialization.
    """
    t = _grid(span, step)
    return TimeSeries(
        t, 70.0 * np.cos(2.0 * np.pi * t / 300.0) + 2.0 * np.sin(2.0 * np.pi * t / 30.0)
    )


_GENERATORS = {
    "two_cosine": two_cosine,
    "sinusoid": sinusoid,
    "random_walk": random_walk,
    "riding_wave": riding_wave,
}
SYNTH_KINDS = tuple(_GENERATORS)


def synth(kind: str, **params) -> TimeSeries:
    """Build a named synthetic signal; unknown names raise."""
    if kind not in _GENERATORS:
        raise ValueError(f"unknown synthetic signal {kind!r}; pick one of {SYNTH_KINDS}")
    return _GENERATORS[kind](**params)
