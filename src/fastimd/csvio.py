"""CSV reading and writing for sampled series.

Comma delimiter, period decimal separator, UTF-8 (a leading byte-order mark
is skipped). Input may carry an optional header line and either two columns
(time, value) or a single value column, which gets implicit unit-step times
0, 1, 2, ... Output always writes a ``time,value`` header and 17 significant
digits so a written series reads back bit-faithfully.

``read_csv`` parses a well-formed body in one ``np.loadtxt`` call. Any file
that call rejects is read again by a line scan, which decides what is valid
and names the line of the first fault; both give the same bits for every
file they both accept.

Both writers, ``write_csv`` here and ``svgplot.render_svg``, go through one
atomic path (``_write_atomic``: temp file plus rename) and format a fixed
block of ``_CHUNK`` rows or points at a time.
"""

from __future__ import annotations

import itertools
import os
import tempfile
from typing import Iterable, Iterator, TextIO

import numpy as np

from .series import TimeSeries

__all__ = ["read_csv", "write_csv"]


def read_csv(path: str) -> TimeSeries:
    """Parse a series from ``path``; malformed rows name their line number."""
    with open(path, "r", encoding="utf-8-sig") as fh:
        try:
            table = _load_table(fh)
        except ValueError:  # a row numpy cannot parse, or bytes that are not UTF-8
            table = None
        if table is None:
            fh.seek(0)
            table = _scan_table(path, fh)
    if table.shape[1] == 1:
        times, values = np.arange(len(table)), table[:, 0]
    else:
        times, values = table[:, 0], table[:, 1]
    try:
        return TimeSeries(times, values)
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from None


def _load_table(fh: TextIO) -> np.ndarray | None:
    """The rows of a well-formed file in one array call, else None.

    numpy converts each field with the parser ``float`` uses, so every value
    it reads has the bits the line scan would give; what it rejects (an
    underscore, a non-ASCII digit, a blank line of spaces) goes to the scan.
    """
    lines = iter(fh)
    first = next(lines, "")
    if _is_header(first):
        first = ""
    # an empty body makes numpy warn; the scan raises its own error for it
    body = itertools.dropwhile(lambda line: not line.strip(), itertools.chain([first], lines))
    head = next(body, None)
    if head is None:
        return None
    table = np.loadtxt(itertools.chain([head], body), delimiter=",", comments=None, ndmin=2)
    return table if table.shape[1] in (1, 2) else None


def _scan_table(path: str, fh: TextIO) -> np.ndarray:
    """Parse ``fh`` one line at a time, raising on the first malformed row."""
    rows: list[list[float]] = []
    ncols = 0
    for lineno, raw in enumerate(fh, start=1):
        line = raw.strip()
        if not line:
            continue
        fields = [f.strip() for f in line.split(",")]
        try:
            numbers = [float(f) for f in fields]
        except ValueError:
            # a fully non-numeric first line is a header; anything else is bad data
            if lineno == 1 and _is_header(line):
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
        rows.append(numbers)
    # no rows gives an empty two-column table, which TimeSeries rejects
    return np.array(rows, dtype=np.float64).reshape(len(rows), ncols or 2)


def _is_header(line: str) -> bool:
    """True for a non-blank line none of whose comma-separated fields is a number."""
    return bool(line.strip()) and not any(_is_number(f.strip()) for f in line.split(","))


def _is_number(field: str) -> bool:
    try:
        float(field)
    except ValueError:
        return False
    return True


def write_csv(series: TimeSeries, path: str) -> None:
    """Write ``time,value`` rows atomically (temp file plus rename)."""
    rows = _format_pairs("%.17g,%.17g\n", series.times, series.values)
    _write_atomic(path, itertools.chain(["time,value\n"], rows))


# Rows formatted per block. Formatting whole arrays at once holds every
# value as a Python float and its text at the same time.
_CHUNK = 4096


def _format_pairs(fmt: str, a: np.ndarray, b: np.ndarray) -> Iterator[str]:
    """Yield ``"".join(fmt % (a[i], b[i]) for i in range(len(a)))``, ``_CHUNK`` rows a piece."""
    flat = np.column_stack((a, b)).ravel()
    for lo in range(0, len(flat), 2 * _CHUNK):
        pairs = flat[lo:lo + 2 * _CHUNK].tolist()
        yield fmt * (len(pairs) // 2) % tuple(pairs)


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
