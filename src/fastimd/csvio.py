"""CSV reading and writing for sampled series.

Comma delimiter, period decimal separator, UTF-8 (a leading byte-order mark
is skipped). Input may carry an optional header line and either two columns
(time, value) or a single value column, which gets implicit unit-step times
0, 1, 2, ... Output always writes a ``time,value`` header and 17 significant
digits so a written series reads back bit-faithfully.

Both writers, ``write_csv`` here and ``svgplot.render_svg``, go through one
atomic path (``_write_atomic``: temp file plus rename) and format their
number pairs with ``_format_pairs``, a fixed block of rows at a time.
"""

from __future__ import annotations

import itertools
import os
import tempfile
from typing import Iterable, Iterator

import numpy as np

from .series import TimeSeries

__all__ = ["read_csv", "write_csv"]


def read_csv(path: str) -> TimeSeries:
    """Parse a series from ``path``; malformed rows name their line number."""
    times: list[float] = []
    values: list[float] = []
    ncols = 0
    with open(path, "r", encoding="utf-8-sig") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            fields = [f.strip() for f in line.split(",")]
            try:
                numbers = [float(f) for f in fields]
            except ValueError:
                # a fully non-numeric first line is a header; anything else is bad data
                if lineno == 1 and not any(_is_number(f) for f in fields):
                    continue
                raise ValueError(f"{path}: line {lineno}: non-numeric row {line!r}") from None
            if len(numbers) not in (1, 2):
                raise ValueError(
                    f"{path}: line {lineno}: expected 1 or 2 columns, got {len(numbers)}"
                )
            if ncols == 0:
                ncols = len(numbers)
            elif len(numbers) != ncols:
                raise ValueError(
                    f"{path}: line {lineno}: column count changed from {ncols} "
                    f"to {len(numbers)}"
                )
            if ncols == 1:
                values.append(numbers[0])
            else:
                times.append(numbers[0])
                values.append(numbers[1])
    if ncols == 1:
        times = list(range(len(values)))
    try:
        return TimeSeries(np.asarray(times), np.asarray(values))
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from None


def _is_number(field: str) -> bool:
    try:
        float(field)
    except ValueError:
        return False
    return True


def write_csv(series: TimeSeries, path: str) -> None:
    """Write ``time,value`` rows atomically (temp file plus rename)."""
    rows = _format_pairs("%.17g,%.17g\n", "", series.times, series.values)
    _write_atomic(path, itertools.chain(["time,value\n"], rows))


# Rows formatted per block. Formatting whole arrays at once holds every
# value as a Python float and its text at the same time.
_CHUNK = 4096


def _format_pairs(fmt: str, sep: str, a: np.ndarray, b: np.ndarray) -> Iterator[str]:
    """Yield ``sep.join(fmt % (a[i], b[i]) for i in range(len(a)))``, ``_CHUNK`` rows a piece."""
    flat = np.column_stack((a, b)).ravel()
    for lo in range(0, len(flat), 2 * _CHUNK):
        pairs = flat[lo:lo + 2 * _CHUNK].tolist()
        text = sep.join([fmt] * (len(pairs) // 2)) % tuple(pairs)
        yield sep + text if lo else text


def _write_atomic(path: str, chunks: Iterable[str]) -> None:
    """Write ``chunks`` to a temp file beside ``path``, then rename it over ``path``."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
