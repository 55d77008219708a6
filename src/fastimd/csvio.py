"""CSV reading and writing for sampled series.

Comma delimiter, period decimal separator, UTF-8 (a leading byte-order mark
is skipped). Input may carry an optional header line and either two columns
(time, value) or a single value column, which gets implicit unit-step times
0, 1, 2, ... Output always writes a ``time,value`` header and 17 significant
digits so a written series reads back bit-faithfully.

``read_csv`` parses a well-formed body in one ``np.loadtxt`` call. It
opens the file as text and skips a header on line 1 and the blank lines
before the first row. A regular file is then parsed by numpy from its
path, which numpy reads in blocks with its C reader. Given lines, numpy
takes them one at a time; that is how it reads a pipe or a FIFO, which
cannot be read twice: its bytes are read once and kept in memory, and both
parsers read them. numpy opens a name ending ``.gz``, ``.bz2``, ``.xz``
or ``.lzma`` through a decompressor and a URL as a download, so such names
are given as lines too: a compressed file stays "not UTF-8" and no file is
fetched. Any file the call rejects is read again by a line scan, which
decides what is valid and names the line of the first fault; both give the
same bits for every file they both accept. Numbers are ASCII decimal
literals (``nan`` and ``inf`` included): the scan rejects, as numpy does,
the digit-group underscores and non-ASCII digits Python's ``float`` would
read.

``write_csv`` writes every value as ``"%.17g" %`` does, byte for byte, but
from arrays, one block of ``_CHUNK`` rows at a time (Grisu's idea of an
integer fast path that proves its own rounding: Loitsch, PLDI 2010):

- Fast path. For |x| in [1e-290, 1e299), k = floor(log10 |x|) picks
  10**(16 - k) from a table of double-double pairs hi + lo. Dekker's exact
  product (Numer. Math. 1971) gives |x| hi = a + b, a being an integer once
  it passes 2**53, and r = b + fl(|x| lo). The 17 digits are
  D = a + rint(r), the exponent k; where log10 was one off next to a power
  of ten (D outside [10**16, 10**17)), k moves by one and |x| is scaled again.
- Error bound. With u = 2**-53 and a < 2**57 (true wherever D <= 10**17):
  |b| <= 8 and |x lo| <= 16. Rounding lo in the table costs at most 16u
  once multiplied by |x|, rounding |x| lo another 16u, and adding it to b
  24u, so a + r lies within 56u of |x| 10**(16 - k). Wherever
  |r - rint(r)| < 1/2 - 2**-47 (64u), D is therefore the correctly rounded
  value, and not a tie.
- Fallback. Every other value is formatted by ``%``: a product within that
  band of a half (a tie, or too close to tell: 2.2422607587866907e-07 times
  10**23 is a half plus 2**-52 but computes to an exact half), one that
  rounds up to the next power of ten, non-finite values, and magnitudes
  outside the fast range (subnormals, values whose Dekker split or table
  entry would overflow or underflow). Zero is written from arrays.

- Whole numbers. A block whose values are all integers below 1e17 in
  magnitude is written as signs and integer digits, with none of the
  above: such a value has at most 17 digits, so ``%.17g`` writes all of
  them in fixed notation, exactly, with no point (``-0`` keeps its sign;
  1e17 itself is written ``1e+17`` and goes the general way, as do NaN and
  inf). Evenly sampled time columns take this path.

From D and k the text is assembled in arrays as ``%g`` does it: fixed
notation for k from -4 to 16 and exponent notation (``e+XX``/``e+XXX``)
otherwise, trailing zeros and a bare point stripped, ``-0`` kept. Both
writers, ``write_csv`` here and ``svgplot.render_svg``, peel digits with
the one ``_digit_rows`` (whole numbers through ``_whole_rows``), join
their text with ``_join_text`` and write bytes through one atomic path
(``_write_atomic``: temp file plus rename), so no platform changes the line
ends; a chart's point text is decoded, to join the one document it writes.
Written files get the mode ``open(path, "w")`` gives.
"""

from __future__ import annotations

import io
import itertools
import math
import os
import stat
from typing import Iterable, Iterator, TextIO

import numpy as np

from .series import TimeSeries

__all__ = ["read_csv", "write_csv"]


def read_csv(path: str | os.PathLike) -> TimeSeries:
    """Parse a series from ``path``; malformed rows name their line number.
    A file that is not UTF-8 text raises ValueError naming the file."""
    path = os.fsdecode(path)
    with open(path, "r", encoding="utf-8-sig") as fh:
        if not fh.seekable():
            # a pipe or a FIFO can be read only once: its bytes are kept, and
            # numpy and the line scan both read them as text
            fh = io.TextIOWrapper(io.BytesIO(fh.buffer.read()), encoding="utf-8-sig")
        try:
            table = _load_table(fh)
        except ValueError:  # a row numpy cannot parse, or bytes that are not UTF-8
            table = None
        if table is None:
            fh.seek(0)
            try:
                table = _scan_table(path, fh)
            except UnicodeDecodeError:  # its position counts from a read chunk, not the file
                raise ValueError(f"{path}: not UTF-8 text; save the file as UTF-8") from None
    if table.shape[1] == 1:
        times, values = np.arange(len(table)), table[:, 0]
    else:
        times, values = table[:, 0], table[:, 1]
    try:
        return TimeSeries(times, values)
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from None


# numpy opens a path with these endings through a decompressor, and a path
# with a scheme and a host ("http://...") as a download
_DECOMPRESSED = (".gz", ".bz2", ".xz", ".lzma")


def _load_table(fh: TextIO) -> np.ndarray | None:
    """The rows of a well-formed file in one array call, else None.

    ``fh`` is a file opened by name as text, or the bytes of a pipe or a
    FIFO held in memory and read as text. Its lines up to the first row are
    skipped: line 1 if it is a header, and blank lines. A regular file
    under a name numpy neither decompresses nor downloads is then parsed
    again from its name, by numpy's block reader; numpy takes any other
    input's remaining lines from ``fh``. numpy converts each field with the
    parser ``float`` uses, so every value it reads has the bits the line
    scan would give; what it rejects goes to the scan, which then rejects
    an underscore or a non-ASCII digit too and skips a blank line of
    spaces.
    """
    skip = 0
    for line in fh:
        if line.strip() and (skip or not _is_header(line)):
            break
        skip += 1
    else:  # an empty body makes numpy warn; the scan raises its own error for it
        return None
    if _is_regular_file(fh) and not fh.name.endswith(_DECOMPRESSED) and "://" not in fh.name:
        table = np.loadtxt(fh.name, delimiter=",", comments=None, ndmin=2, skiprows=skip,
                           encoding="utf-8-sig")
    else:
        table = np.loadtxt(itertools.chain([line], fh), delimiter=",", comments=None, ndmin=2)
    return table if table.shape[1] in (1, 2) else None


def _is_regular_file(fh: TextIO) -> bool:
    """Whether ``fh`` reads a regular file; false for bytes held in memory."""
    try:
        return stat.S_ISREG(os.fstat(fh.fileno()).st_mode)
    except io.UnsupportedOperation:
        return False


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
            if any("_" in f or not f.isascii() for f in fields):
                raise ValueError("not an ASCII decimal literal")
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
    _write_atomic(path, itertools.chain([b"time,value\n"], _csv_rows(series.times, series.values)))


# Rows formatted per block. Formatting whole arrays at once holds every
# value's text, and the arrays it is built in, at the same time.
_CHUNK = 16384


def _csv_rows(times: np.ndarray, values: np.ndarray) -> Iterator[bytes]:
    """Yield ``"%.17g,%.17g\\n" % (times[i], values[i])`` for every ``i``,
    ``_CHUNK`` rows a piece."""
    for lo in range(0, len(times), _CHUNK):
        yield _join_text(np.concatenate((_g17_text(times[lo:lo + _CHUNK], b","),
                                         _g17_text(values[lo:lo + _CHUNK], b"\n"))))


def _join_text(table: np.ndarray) -> bytes:
    """The columns of a text table, one after another, with zero bytes left out.

    A text table holds one column of ASCII bytes per value and one row per
    character position; a zero byte stands for no character.
    """
    # bytes.translate deletes a byte faster than a numpy mask selects the rest
    return table[table.any(axis=1)].T.tobytes().translate(None, b"\0")


_ZERO = np.uint8(ord("0"))
_TEN = np.uint32(10)


def _digit_rows(whole: np.ndarray, count: int) -> np.ndarray:
    """The last ``count`` (at most 18) decimal digits of each non-negative
    integer in ``whole``, as ASCII: row ``j`` holds digit ``j``, most
    significant first."""
    # groups of up to nine digits are split off in uint64, then all groups
    # are peeled at once in uint32, whose division by 10 is twice as fast
    groups = -(-count // 9)
    per = -(-count // groups)
    split = np.uint64(10 ** per)
    w = whole.astype(np.uint64)
    parts = np.empty((groups, len(whole)), dtype=np.uint32)
    for g in range(groups - 1, -1, -1):
        q = w // split
        parts[g] = (w - q * split).astype(np.uint32)
        w = q
    out = np.empty((groups, per, len(whole)), dtype=np.uint8)
    for j in range(per - 1, -1, -1):
        q = parts // _TEN
        np.add(parts - q * _TEN, _ZERO, out=out[:, j], casting="unsafe")
        parts = q
    return out.reshape(groups * per, len(whole))[groups * per - count:]


def _whole_rows(whole: np.ndarray) -> np.ndarray:
    """The digits of each non-negative integer in ``whole`` (below 10**18) as
    ASCII rows, as many as the largest has, with zero bytes for leading zeros."""
    width = len(str(int(whole.max())))
    digits = _digit_rows(whole, width)
    powers = 10 ** np.arange(width - 1, 0, -1, dtype=np.int64)
    digits[:width - 1] *= (whole >= powers[:, None]).view(np.uint8)
    return digits


# Exact 17-digit scaling. k runs over the decimal exponents of |x| in
# [_FAST_MIN, _FAST_MAX) and one either side; row 0 of _POWERS holds
# 10**(16 - k) rounded, row 1 the rest rounded, rows 2 and 3 row 0 split into
# two 26-bit halves for Dekker's product.
_K_MIN, _K_MAX = -292, 300
_FAST_MIN, _FAST_MAX = 1e-290, 1e299
_SPLIT = 134217729.0  # 2**27 + 1
_HALF_BAND = 2.0 ** -47
_E16, _E17 = 10 ** 16, 10 ** 17


def _power_table() -> np.ndarray:
    rows = []
    for k in range(_K_MIN, _K_MAX + 1):
        num, den = (10 ** (16 - k), 1) if k <= 16 else (1, 10 ** (k - 16))
        hi = num / den  # int division rounds correctly, as does the rest's below
        hi_num, hi_den = hi.as_integer_ratio()
        lo = (num * hi_den - hi_num * den) / (den * hi_den)
        # split the mantissa, so that no power near the float64 limit overflows
        mantissa, exponent = math.frexp(hi)
        c = mantissa * _SPLIT
        top = c - (c - mantissa)
        rows.append((hi, lo, math.ldexp(top, exponent), math.ldexp(mantissa - top, exponent)))
    return np.array(rows, dtype=np.float64).T.copy()


_POWERS = _power_table()


def _scaled(ax: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(d, t)``, ``d`` an int64 and ``|t| <= 1/2``: wherever ``d`` lies in
    [10**16, 10**17], ``ax * 10**(16 - k)`` is ``d + t`` to within 56 * 2**-53."""
    hi, lo, hi_top, hi_low = _POWERS[:, k - _K_MIN]
    a = ax * hi
    c = ax * _SPLIT
    x_top = c - (c - ax)
    x_low = ax - x_top
    b = ((x_top * hi_top - a) + x_top * hi_low + x_low * hi_top) + x_low * hi_low  # a + b = ax * hi
    # a is an integer from 2**53 on; below that d < 10**16 and the caller rescales
    rest = b + ax * lo
    near = np.rint(rest)
    return a.astype(np.int64) + near.astype(np.int64), rest - near


def _decimal(ax: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(d, k, exact)`` for ``ax`` in [_FAST_MIN, _FAST_MAX): ``ax`` rounded
    to 17 significant digits is ``d * 10**(k - 16)``, ``10**16 <= d < 10**17``,
    wherever ``exact`` holds."""
    k = np.floor(np.log10(ax)).astype(np.int64)
    d, t = _scaled(ax, k)
    # log10 is one off next to a power of ten: the scaled value then lies
    # below 10**16 or at 10**17 - 1/2 or above. A value that rounds up to
    # the next power of ten ends at 10**17 and is left to the caller
    move = (d >= _E17).astype(np.int64) - ((d < _E16) | ((d == _E16) & (t < 0))).astype(np.int64)
    again = np.flatnonzero(move)
    if len(again):
        k[again] += move[again]
        d[again], t[again] = _scaled(ax[again], k[again])
    exact = (np.abs(t) < 0.5 - _HALF_BAND) & (d >= _E16) & (d < _E17)
    return d, k, exact


# Rows of a value's text: sign, "0.000" before the digits of 1e-4 <= |x| < 1,
# the 17 digits with a row for the point after each of the first 16, the
# exponent ("e", sign, three digits) and the end byte.
_SIGN, _LEAD, _EXP, _ROWS = 0, slice(1, 6), 39, 45
_DIGITS, _POINTS = slice(6, 39, 2), slice(7, 38, 2)
_LEAD_TEXT = np.frombuffer(b"0.000", dtype=np.uint8)[:, None]
_LEAD_BELOW = np.array([0, 0, -1, -2, -3], dtype=np.int8)[:, None]
_POSITION = np.arange(17, dtype=np.int8)[:, None]
_WIDEST = 24  # "-2.2250738585072014e-308"
_WHOLE_MAX = 1e17  # integers below it have at most 17 digits


def _g17_text(x: np.ndarray, end: bytes) -> np.ndarray:
    """The text table of ``"%.17g" % x[i]`` followed by ``end``, one column per value."""
    ax = np.abs(x)
    if (ax < _WHOLE_MAX).all() and (x == np.trunc(x)).all():
        return _whole_text(x, ax, end)
    fast = (ax >= _FAST_MIN) & (ax < _FAST_MAX)
    zero = ax == 0.0
    d, k, exact = _decimal(np.where(fast, ax, 1.0))  # zero is written from the digits of 1
    text = np.zeros((_ROWS, len(x)), dtype=np.uint8)
    np.multiply(np.signbit(x).view(np.uint8), np.uint8(ord("-")), out=text[_SIGN])
    # %g: fixed notation for exponents -4 to 16, with the point after digit
    # k (before digit 0 and three zeros at most, for k < 0); else one digit,
    # the point and an exponent
    fixed = (k >= -4) & (k < 17)
    point = np.where(fixed, k, 0).astype(np.int8)
    np.multiply(_LEAD_TEXT, (point < _LEAD_BELOW).view(np.uint8), out=text[_LEAD])
    digits = _digit_rows(d, 17)
    digits[0] -= zero.view(np.uint8)
    # trailing zeros after the point go, and the point with them when no digit follows it
    strip = (digits == _ZERO) & (_POSITION > point)
    for j in range(15, 0, -1):
        strip[j] &= strip[j + 1]
    np.multiply(digits, (~strip).view(np.uint8), out=text[_DIGITS])
    points = (_POSITION[:16] == point) & ~strip[1:]
    np.multiply(points.view(np.uint8), np.uint8(ord(".")), out=text[_POINTS])
    sci = np.flatnonzero(~fixed)
    if len(sci):
        power = k[sci]
        text[_EXP, sci] = ord("e")
        text[_EXP + 1, sci] = np.where(power < 0, np.uint8(ord("-")), np.uint8(ord("+")))
        power = np.abs(power)
        exp_digits = _digit_rows(power, 3)
        exp_digits[0] *= (power >= 100).view(np.uint8)
        text[_EXP + 2:_EXP + 5, sci] = exp_digits
    text[-1] = ord(end)
    # the values the array path cannot vouch for, in the first rows of their columns
    slow = np.flatnonzero(~(fast & exact | zero))
    if len(slow):
        padded = "".join(["%-*.17g" % (_WIDEST, v) for v in x[slow].tolist()]).encode("ascii")
        chars = np.frombuffer(padded, dtype=np.uint8).reshape(len(slow), _WIDEST)
        text[:_WIDEST, slow] = (chars * (chars != np.uint8(ord(" ")))).T
        text[_WIDEST:-1, slow] = 0
    return text


def _whole_text(x: np.ndarray, ax: np.ndarray, end: bytes) -> np.ndarray:
    """``_g17_text`` of integers below 1e17 in magnitude: sign and digits."""
    digits = _whole_rows(ax.astype(np.int64))
    text = np.empty((len(digits) + 2, len(x)), dtype=np.uint8)
    np.multiply(np.signbit(x).view(np.uint8), np.uint8(ord("-")), out=text[0])
    text[1:-1] = digits
    text[-1] = ord(end)
    return text


def _write_atomic(path: str, chunks: Iterable[bytes]) -> None:
    """Write ``chunks`` to a temp file beside ``path``, then rename it over ``path``.

    The temp file is created as ``open(path, "w")`` would create ``path``:
    mode 0o666 less the umask (``tempfile.mkstemp`` would make it 0o600).
    """
    directory = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(directory, f"{os.path.basename(path)}.{os.urandom(8).hex()}.tmp")
    flags = os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0)
    fd = os.open(tmp, flags, 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
