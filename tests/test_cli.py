"""Tests for the command-line front end and CSV handling.

Exit code contract: 0 success, 1 invalid arguments, 2 I/O failure, 3
numeric failure (values that overflow float64).  The per-mode diagnostics
line is pinned character by character; everything else goes through
``main()`` in process, with one subprocess check that the module entry point
behaves the same.
"""

import argparse
import bz2
import dataclasses
import gzip
import inspect
import math
import os
import re
import stat
import subprocess
import sys
import threading
from unittest import mock
from xml.etree import ElementTree

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import fastimd.cli
from fastimd import (FilterCriteria, ModeComponent, RefinementConfig, TimeSeries, decompose,
                     filter_series, random_walk, read_csv, render_svg, two_cosine, write_csv)
from fastimd import csvio
from fastimd.cli import build_parser, format_mode_line, main
from fastimd.csvio import _CHUNK
from fastimd.signals import SYNTH_KINDS
from test_svgplot import points_in_box

MODE_LINE = re.compile(
    r"^IMF component \d+, Extrema count: \d+, "
    r"Value range: \[-?\d+\.\d{3}, -?\d+\.\d{3}\], Iterations: \d+, "
    r"Delta: \d+\.\d{6} at -?\d+\.\d{2}$"
)
PASS_LINE = re.compile(r"^Pass \d+: marked \d+ extrema, max change \d+\.\d{6}$")


# ---------------------------------------------------------------------------
# csv round trip
# ---------------------------------------------------------------------------

def test_csv_round_trip_is_exact(tmp_path):
    rng = np.random.default_rng(2)
    path = str(tmp_path / "series.csv")
    for _ in range(10):
        n = int(rng.integers(2, 50))
        t = np.sort(rng.uniform(-100.0, 100.0, n)) + np.arange(n) * 1e-3
        v = rng.normal(scale=1e6, size=n)
        write_csv(TimeSeries(t, v), path)
        back = read_csv(path)
        npt.assert_array_equal(back.times, t)
        npt.assert_array_equal(back.values, v)


def test_csv_reads_header_and_bare(tmp_path):
    p = tmp_path / "a.csv"
    p.write_text("time,value\n0,1.5\n1,2.5\n")
    s = read_csv(str(p))
    npt.assert_array_equal(s.values, [1.5, 2.5])
    p.write_text("0,1.5\n1,2.5\n")
    npt.assert_array_equal(read_csv(str(p)).values, [1.5, 2.5])


def test_csv_single_column_gets_unit_times(tmp_path):
    p = tmp_path / "one.csv"
    p.write_text("value\n5\n6\n7\n")
    s = read_csv(str(p))
    npt.assert_array_equal(s.times, [0.0, 1.0, 2.0])
    npt.assert_array_equal(s.values, [5.0, 6.0, 7.0])


def test_csv_errors_name_the_line(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("0,1\n1,x\n")
    with pytest.raises(ValueError, match="line 2"):
        read_csv(str(p))
    p.write_text("0,1\n1\n")
    with pytest.raises(ValueError, match="line 2"):
        read_csv(str(p))
    # a half-numeric first line is data with a typo, not a header
    p.write_text("t,0.5\n1,2\n")
    with pytest.raises(ValueError, match="line 1"):
        read_csv(str(p))


@pytest.mark.parametrize("field", ["1_0", "\u0661"], ids=["underscore", "arabic-indic"])
def test_csv_rejects_what_numpy_rejects(tmp_path, capsys, field):
    # Python's float reads both spellings, np.loadtxt neither; the line scan
    # follows numpy, so the file fails in both and names its line
    p = tmp_path / "odd.csv"
    p.write_text(f"time,value\n0,1\n1,{field}\n2,3\n", encoding="utf-8")
    with pytest.raises(ValueError, match="line 3"):
        read_csv(str(p))
    assert main(["decompose", "--input", str(p), "--output-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith(f"fastimd: error: {p}: line 3: ")


def test_csv_reads_ascii_literals(tmp_path):
    # both parsers read these; a series then rejects the non-finite ones
    p = tmp_path / "spellings.csv"
    p.write_text("0,nan\n1,inf\n2,+1e3\n3,.5\n4,1.\n5,-Infinity\n")
    want = [[0.0, np.nan], [1.0, np.inf], [2.0, 1e3], [3.0, 0.5], [4.0, 1.0], [5.0, -np.inf]]
    with open(p, encoding="utf-8-sig") as fh:
        npt.assert_array_equal(csvio._scan_table(str(p), fh), want)
    with open(p, encoding="utf-8-sig") as fh:
        npt.assert_array_equal(csvio._load_table(fh), want)
    with pytest.raises(ValueError, match="must be finite"):
        read_csv(str(p))


def test_csv_skips_blank_lines(tmp_path):
    p = tmp_path / "gaps.csv"
    p.write_text("0,1\n\n1,2\n\n")
    assert len(read_csv(str(p))) == 2


@pytest.mark.parametrize("header", ["", "time,value\n"])
def test_csv_reads_byte_order_mark(tmp_path, capsys, header):
    # spreadsheet "CSV UTF-8" exports start with U+FEFF
    body = header + "0,1\n1,-2.5\n2,3\n3,-1\n4,2\n5,0.5\n"
    plain = tmp_path / "plain.csv"
    plain.write_text(body, encoding="utf-8")
    marked = tmp_path / "bom.csv"
    marked.write_bytes(b"\xef\xbb\xbf" + body.encode("utf-8"))
    want = read_csv(str(plain))
    got = read_csv(str(marked))
    npt.assert_array_equal(got.times, want.times)
    npt.assert_array_equal(got.values, want.values)
    assert main(["decompose", "--input", str(marked),
                 "--output-dir", str(tmp_path / "out")]) == 0
    capsys.readouterr()


_SPECIAL_FIELDS = st.sampled_from([
    "", "x", "time", "1.5.2", "0x10", "1e400", "-1e400", "nan", "-inf", "Infinity",
    "1_0", "\u0661\u0662", "\uff13", "1e-320", ".5", "5.", "+7", "-0.0", "2.5E3",
])
_PADS = st.sampled_from(["", "", "", " ", "\t", "\x0c", "\u00a0", "\u2003"])


@st.composite
def _csv_texts(draw):
    """CSV text near the reader's rules: a byte-order mark, a header, blank
    and space-only lines, three kinds of line end, 1-3 columns, trailing
    commas, and special or non-ASCII numbers. A share of the rows (none in
    some files) is irregular, so both clean and faulty files are drawn."""
    ncols = draw(st.sampled_from([1, 2, 2, 3]))
    noise = draw(st.sampled_from([0, 0, 5, 30]))  # percent of irregular fields and lines

    def irregular():
        return draw(st.integers(0, 99)) < noise

    lines = []
    if draw(st.booleans()):
        lines.append(draw(st.sampled_from(["time,value", "value", "t, v", "t,0.5", "", " "])))
    for row in range(draw(st.integers(0, 12))):
        if irregular():
            lines.append(draw(st.sampled_from(["", " ", "\t\t", "\x0c", "\u00a0"])))
            continue
        width = draw(st.integers(1, 3)) if irregular() else ncols
        fields = []
        for col in range(width):
            if irregular():
                text = draw(_SPECIAL_FIELDS)
            elif col == 0 and width > 1:  # increasing times
                text = draw(st.sampled_from(["{}", "{}.0", "{}e0", "{:.17g}"])).format(row)
            else:
                value = draw(st.floats(allow_nan=False, allow_infinity=False))
                text = draw(st.sampled_from(["{!r}", "{:.3e}", "{:.17g}", "{:.0f}"])).format(value)
            fields.append(draw(_PADS) + text + draw(_PADS))
        lines.append(",".join(fields) + ("," if irregular() else ""))
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = end.join(lines) + (end if draw(st.booleans()) else "")
    return ("\ufeff" if draw(st.booleans()) else "") + text


def _read_or_error(path):
    try:
        series = read_csv(path)
    except ValueError as err:
        return type(err), str(err)
    return series.times.tobytes(), series.values.tobytes()


@settings(max_examples=400, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=_csv_texts().map(lambda text: text.encode("utf-8")))
@example(data=b"")
@example(data=b"time,value\n")
@example(data=b"\xef\xbb\xbfvalue\r\n\r\n")
@example(data=b"time,value\n1,2\n3,4\n")
@example(data=b"0,1_0\n1,2\n")
@example(data="0,1\n \t \n1,\u0662\n".encode("utf-8"))
@example(data="\u00a00,1\u2003\n1,2\n".encode("utf-8"))
@example(data=b"value\r5\r6\r")
@example(data=b"0,1\n1,\x002\n")
@example(data=b"0,1\n\xff,2\n")  # not UTF-8
@example(data=b"".join(b"%d,1\n" % i for i in range(3000)) + b"9,\xe2\x82\n")
def test_csv_array_parse_matches_line_scan(tmp_path, data):
    # the line scan alone is the reference: bits, or exception and message.
    # A warning fails the test through the project's warning filters
    path = tmp_path / "drawn.csv"
    path.write_bytes(data)
    with mock.patch.object(csvio, "_load_table", lambda fh: None):
        want = _read_or_error(str(path))
    assert _read_or_error(str(path)) == want


@pytest.mark.filterwarnings("error")
def test_csv_array_parse_takes_well_formed_files(tmp_path):
    # a file the scan reads without fault goes through the array call, and
    # a header-only file goes to the scan, which raises its own error
    path = tmp_path / "plain.csv"
    path.write_bytes(b"\xef\xbb\xbftime,value\r\n\r\n0,1.5\r\n1, -2\r\n\r\n2,1e-3\r\n")
    with open(path, encoding="utf-8-sig") as fh:
        table = csvio._load_table(fh)
    npt.assert_array_equal(table, [[0.0, 1.5], [1.0, -2.0], [2.0, 1e-3]])
    # a regular file is parsed by numpy's block reader, which takes its name
    with mock.patch.object(np, "loadtxt", wraps=np.loadtxt) as loadtxt:
        npt.assert_array_equal(read_csv(path).values, [1.5, -2.0, 1e-3])
    assert loadtxt.call_args.args[0] == str(path)
    path.write_text("time,value\n\n")
    with open(path, encoding="utf-8-sig") as fh:
        assert csvio._load_table(fh) is None


def test_csv_reads_a_path_object(tmp_path):
    p = tmp_path / "in.csv"
    p.write_text("time,value\n0,1.5\n1,2.5\n")
    npt.assert_array_equal(read_csv(p).values, [1.5, 2.5])


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
@pytest.mark.parametrize("rows", [3, 5000])  # within one read buffer, and many
def test_csv_reads_every_row_of_a_pipe(rows):
    # as "--input <(gunzip -c in.csv.gz)" gives it: a pipe cannot be read
    # twice, so numpy gets the lines of the one read
    rng = np.random.default_rng(rows)
    values = rng.normal(scale=1e3, size=rows)
    text = "time,value\n\n" + "".join(f"{t},{v!r}\n" for t, v in enumerate(values.tolist()))
    r, w = os.pipe()

    def write():
        with os.fdopen(w, "w") as fh:
            fh.write(text)

    writer = threading.Thread(target=write)
    writer.start()
    try:
        with mock.patch.object(np, "loadtxt", wraps=np.loadtxt) as loadtxt:
            series = read_csv(f"/dev/fd/{r}")
    finally:
        os.close(r)
        writer.join()
    assert not isinstance(loadtxt.call_args.args[0], str)
    npt.assert_array_equal(series.times, np.arange(rows))
    assert series.values.tobytes() == values.tobytes()


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
@pytest.mark.parametrize("rows, bad", [(3, 1), (5000, 4321)])  # within one read buffer, and past it
def test_fault_in_a_fifo_names_its_line(tmp_path, capsys, rows, bad):
    # a FIFO cannot be read twice: numpy rejects the row, and the line scan
    # reads the same text again to name the line
    fifo = tmp_path / "in.csv"
    os.mkfifo(fifo)
    lines = [f"{i},{i % 7}\n" for i in range(rows)]
    lines[bad] = f"{bad},x\n"

    def write():
        with open(fifo, "w") as fh:
            fh.writelines(lines)

    writer = threading.Thread(target=write, daemon=True)
    writer.start()
    code = main(["decompose", "--input", str(fifo), "--output-dir", str(tmp_path / "out")])
    writer.join(timeout=10)
    assert not writer.is_alive()
    assert code == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err == [f"fastimd: error: {fifo}: line {bad + 1}: non-numeric row '{bad},x'"]


def test_csv_names_numpy_decompresses_are_read_as_lines():
    # numpy's path reader decompresses these endings; given lines, numpy and
    # the scan read the bytes as they are, so a compressed file is "not UTF-8"
    openers = {ext for ext in np.lib._datasource._file_openers.keys() if ext}
    assert openers <= set(csvio._DECOMPRESSED)


@pytest.mark.parametrize("suffix, compress", [(".csv.gz", gzip.compress),
                                              (".csv.bz2", bz2.compress)], ids=["gz", "bz2"])
def test_exit_2_on_a_compressed_file(tmp_path, capsys, suffix, compress):
    text = "".join(f"{t},{v!r}\n" for t, v in enumerate(two_cosine(span=2000).values.tolist()))
    path = tmp_path / ("in" + suffix)
    path.write_bytes(compress(text.encode("ascii")))
    assert main(["decompose", "--input", str(path), "--output-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith(f"fastimd: error: {path}: not UTF-8")
    # the same bytes uncompressed under such a name read as plain text
    path.write_text(text)
    assert len(read_csv(str(path))) == 2001


def test_csv_path_like_a_url_is_a_local_path(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    try:
        (tmp_path / "http:" / "host").mkdir(parents=True)
    except OSError:
        pytest.skip("the OS refuses a ':' in a directory name")
    (tmp_path / "http:" / "host" / "in.csv").write_text("0,1\n1,2\n2,3\n")
    with mock.patch("urllib.request.urlopen", side_effect=AssertionError("a download")):
        npt.assert_array_equal(read_csv("http://host/in.csv").values, [1.0, 2.0, 3.0])
        assert main(["decompose", "--input", "http://localhost/in.csv"]) == 2
    assert "No such file" in capsys.readouterr().err


def _reference_csv_text(times, values) -> str:
    """``write_csv``'s output as it was formatted one row at a time."""
    rows = "".join(f"{t:.17g},{v:.17g}\n" for t, v in zip(times, values))
    return "time,value\n" + rows


@pytest.mark.parametrize("n", [2, _CHUNK - 1, _CHUNK, _CHUNK + 1, 3 * _CHUNK + 5])
def test_csv_bytes_match_per_row_reference(tmp_path, n):
    rng = np.random.default_rng(n)
    irregular = -50.0 + np.cumsum(rng.uniform(1e-3, 2.0, n))
    # the whole-number grid takes the writer's integer route
    for times in (irregular, np.arange(n, dtype=np.float64) - n // 2):
        values = rng.normal(scale=1e3, size=n)
        specials = [-0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308, 0.1]
        values[:min(n, len(specials))] = specials[:n]
        values[-1] = -0.0
        path = tmp_path / "pin.csv"
        write_csv(TimeSeries(times, values), str(path))
        assert path.read_bytes() == _reference_csv_text(times, values).encode("utf-8")


@pytest.mark.parametrize("source", ["synth", "irregular"])
def test_cli_csv_files_match_per_row_reference(tmp_path, capsys, source):
    # the files of both subcommands hold the library's results, each with
    # the per-row text of its own series on the one time column
    if source == "synth":
        data = two_cosine()
        argv = ["--synth", "two_cosine"]
    else:
        rng = np.random.default_rng(5)
        data = TimeSeries(np.cumsum(rng.uniform(0.05, 1.5, 1500)),
                          rng.normal(size=1500).cumsum())
        src = tmp_path / "in.csv"
        src.write_text(_reference_csv_text(data.times, data.values))
        argv = ["--input", str(src)]
    cfg = RefinementConfig(max_iterations=12, extension="even", initialization="derivative")
    out = tmp_path / "out"
    assert main(["decompose", *argv, "--output-dir", str(out / "d")]) == 0
    result = decompose(data, cfg, max_modes=16)
    want = {"final_residue.csv": result.final_residue}
    for k, mode in enumerate(result.modes, start=1):
        want[f"imf_{k}.csv"] = mode.imf
    assert sorted(p.name for p in (out / "d").iterdir()) == sorted(want)
    assert main(["filter", *argv, "--block-jump", "0:20", "--output-dir", str(out / "f")]) == 0
    filtered = filter_series(data, FilterCriteria(jump_time_blocks=((0.0, 20.0),)), cfg)
    assert filtered.passes > 0
    capsys.readouterr()
    for name, series in [*want.items(), ("filtered.csv", filtered.filtered),
                         ("blocked.csv", filtered.blocked)]:
        path = out / ("f" if name in ("filtered.csv", "blocked.csv") else "d") / name
        assert path.read_bytes() == _reference_csv_text(data.times, series.values).encode()


def _g17_ties(j):
    """n 2**-j for odd n whose exact decimal has 18 digits, the last a 5:
    halfway between two 17-digit values."""
    lo, hi = -(-10 ** 17 // 5 ** j), min((10 ** 18 - 1) // 5 ** j, 2 ** 53 - 1)
    return st.integers(lo, hi).map(lambda n: math.ldexp(n | 1, -j))


_G17_HARD = st.one_of(
    st.integers(2, 25).flatmap(_g17_ties),
    # every power of ten and its neighbours either side
    st.tuples(st.integers(-323, 308), st.sampled_from([-math.inf, 0.0, math.inf])).map(
        lambda pw: math.nextafter(float(f"1e{pw[0]}"), pw[1]) if pw[1] else float(f"1e{pw[0]}")),
    # integers where a double stops holding every integer, and 17 digits stop sufficing
    st.tuples(st.sampled_from([2 ** 53, 10 ** 16, 10 ** 17]), st.integers(-4096, 4096)).map(
        lambda c: float(c[0] + c[1])),
    # where %g switches between fixed and exponent notation
    st.floats(0.99e-4, 1.01e-4),
    st.floats(0.99e17, 1.01e17),
)
_G17_FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.tuples(_G17_HARD, st.booleans()).map(lambda v: -v[0] if v[1] else v[0]),
)


@settings(max_examples=250, derandomize=True, database=None, deadline=None)
@given(pairs=st.lists(st.tuples(_G17_FLOATS, _G17_FLOATS), min_size=1, max_size=40))
@example(pairs=[(0.0, -0.0), (5e-324, -1.7976931348623157e308), (1e-4, 9.9999999999999991e16)])
# the doubles nearest 1e-14 and 1e98 lie below them by less than a 17-digit half unit
@example(pairs=[(1e-14, 1e98), (-1e-305, 1e220)])
def test_csv_rows_match_percent_format(pairs):
    times, values = (np.array(column, dtype=np.float64) for column in zip(*pairs))
    want = b"".join(b"%.17g,%.17g\n" % pair for pair in pairs)
    assert b"".join(csvio._csv_rows(times, values)) == want


def _near_halves():
    """Doubles in [2**-23, 2**-22) whose value times 10**23 lies s 2**-52
    from a half, for small s. 10**23 is no double, so the array path cannot
    tell which side they are on (at s = 1 its product computes to exactly a
    half)."""
    inverse = pow(5 ** 23, -1, 2 ** 52)
    return [math.ldexp((2 ** 51 + s) * inverse % 2 ** 52 + 2 ** 52, -75) for s in range(-3, 4)]


def test_csv_rows_leave_near_halves_and_extremes_to_percent():
    # the near halves lie within the error bound of a half, and ties 2**-25
    # and 3 * 2**-24 are exact halves; the rest lie where the scaling table
    # stops: subnormals, tiny values, and magnitudes where the split overflows
    halves = np.array(_near_halves() + [2.0 ** -25, 3 * 2.0 ** -24])
    assert not csvio._decimal(halves)[2].any()
    extremes = [5e-324, 2.2250738585072014e-308, 1e-291, 5e300, 1.7976931348623157e308]
    values = np.concatenate((halves, extremes, -halves, np.negative(extremes)))
    times = np.arange(len(values), dtype=np.float64)
    want = b"".join(b"%.17g,%.17g\n" % pair for pair in zip(times, values))
    assert b"".join(csvio._csv_rows(times, values)) == want


_WHOLE = [0.0, -0.0, 1.0, -1.0, -7.0, -123456789.0, 2.0 ** 53 - 1, 2.0 ** 53, 2.0 ** 53 + 2,
          1e16, -1e16, 99999999999999984.0, -99999999999999984.0]  # the last: largest below 1e17


def test_csv_whole_number_rows_match_percent_format():
    # a block of integers below 1e17 in magnitude is written from its
    # integer digits, without the 17-digit scaling
    times = np.array(_WHOLE)
    values = times[::-1].copy()
    want = b"".join(b"%.17g,%.17g\n" % pair for pair in zip(times, values))
    with mock.patch.object(csvio, "_decimal", side_effect=AssertionError("not whole")):
        assert b"".join(csvio._csv_rows(times, values)) == want
    # one value that is not such an integer sends its block the general way
    for other in (1e17, -1e17, 0.5, -2.0 ** 53 - 0.5 ** 20, np.nan, np.inf, -np.inf):
        column = np.array(_WHOLE + [other])
        rows = b"".join(csvio._csv_rows(column, column[::-1].copy()))
        assert rows == b"".join(b"%.17g,%.17g\n" % pair for pair in zip(column, column[::-1]))
    assert b"1e+17," in b"".join(csvio._csv_rows(np.array([1e17, 2.0]), np.zeros(2)))


@pytest.mark.parametrize("umask", [0o022, 0o077])
def test_written_files_get_the_mode_open_gives(tmp_path, umask):
    # a temp file from tempfile.mkstemp is 0600 whatever the umask
    old = os.umask(umask)
    try:
        with open(tmp_path / "plain", "w"):
            pass
        want = 0o666 & ~umask
        if stat.S_IMODE((tmp_path / "plain").stat().st_mode) != want:
            pytest.skip("the umask does not decide file modes here")
        series = two_cosine(span=50)
        write_csv(series, str(tmp_path / "series.csv"))
        render_svg({"series": series}, str(tmp_path / "series.svg"))
    finally:
        os.umask(old)
    for name in ("series.csv", "series.svg"):
        assert stat.S_IMODE((tmp_path / name).stat().st_mode) == want


# ---------------------------------------------------------------------------
# diagnostics line
# ---------------------------------------------------------------------------

def test_mode_line_frozen():
    line = format_mode_line(1, 59, (-31.6287, 31.7132), 2, 4e-7, 0.0)
    assert line == (
        "IMF component 1, Extrema count: 59, Value range: [-31.629, 31.713], "
        "Iterations: 2, Delta: 0.000000 at 0.00"
    )
    assert MODE_LINE.match(line)


def test_mode_line_negative_delta_time():
    line = format_mode_line(3, 4, (0.5, 1.0), 12, 1.25, -7.5)
    assert line.endswith("Delta: 1.250000 at -7.50")
    assert MODE_LINE.match(line)


# ---------------------------------------------------------------------------
# decompose subcommand
# ---------------------------------------------------------------------------

def test_decompose_synth(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["decompose", "--synth", "two_cosine", "--output-dir", str(out)])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2
    for line in lines:
        assert MODE_LINE.match(line)
    # one file per series: a level's residue is the final residue plus the
    # slower components, so it is not written
    assert sorted(p.name for p in out.iterdir()) == ["final_residue.csv", "imf_1.csv",
                                                      "imf_2.csv"]
    # written components telescope back to the generated input
    s = two_cosine()
    total = read_csv(str(out / "final_residue.csv")).values.copy()
    total += read_csv(str(out / "imf_1.csv")).values
    total += read_csv(str(out / "imf_2.csv")).values
    npt.assert_allclose(total, s.values, atol=1e-9)


def test_decompose_files_rebuild_every_level_residue(tmp_path, capsys):
    # the residue_k.csv files the CLI no longer writes held nothing new: each
    # level's residue is the final residue plus the components after it
    out = tmp_path / "out"
    assert main(["decompose", "--synth", "random_walk", "--seed", "3", "--span", "1999",
                 "--output-dir", str(out)]) == 0
    data = random_walk(seed=3, span=1999)
    result = decompose(data)
    assert len(result.modes) >= 3
    assert len(capsys.readouterr().out.splitlines()) == len(result.modes)
    imfs = [read_csv(str(out / f"imf_{k}.csv")) for k in range(1, len(result.modes) + 1)]
    residue = read_csv(str(out / "final_residue.csv")).values.copy()
    for mode, imf in zip(reversed(result.modes), reversed(imfs)):
        npt.assert_allclose(residue, mode.residue.values, rtol=0, atol=1e-9 * data.spread)
        residue += imf.values
    npt.assert_allclose(residue, data.values, rtol=0, atol=1e-9 * data.spread)


def test_decompose_csv_input(tmp_path, capsys):
    src = tmp_path / "in.csv"
    write_csv(two_cosine(), str(src))
    out = tmp_path / "out"
    code = main(["decompose", "--input", str(src), "--output-dir", str(out)])
    assert code == 0
    assert (out / "imf_1.csv").exists()


def test_decompose_plot(tmp_path):
    out = tmp_path / "out"
    code = main(["decompose", "--synth", "two_cosine", "--output-dir", str(out),
                 "--plot"])
    assert code == 0
    svg = (out / "decomposition.svg").read_text()
    assert svg.startswith("<svg")
    # input, two components, residue
    assert svg.count("<polyline") >= 4


def test_decompose_synth_params(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["decompose", "--synth", "sinusoid", "--amplitude", "5",
                 "--period", "50", "--span", "200", "--output-dir", str(out)])
    assert code == 0
    assert (out / "final_residue.csv").exists()


@pytest.mark.filterwarnings("error")
def test_decompose_plot_near_the_float64_limit(tmp_path, capsys):
    src = tmp_path / "big.csv"
    src.write_text("0,-8.9e307\n1,8.9e307\n")
    out = tmp_path / "out"
    code = main(["decompose", "--input", str(src), "--output-dir", str(out), "--plot"])
    assert code == 0
    assert capsys.readouterr().err == ""
    svg = (out / "decomposition.svg").read_text()
    assert "nan" not in svg and "inf" not in svg


@pytest.mark.filterwarnings("error")
def test_decompose_plot_of_times_near_the_float64_limit(tmp_path, capsys):
    # the time span, 2e308, passes the float64 limit
    src = tmp_path / "wide.csv"
    src.write_text("-1e308,0\n0,1\n1e308,0\n")
    out = tmp_path / "out"
    code = main(["decompose", "--input", str(src), "--output-dir", str(out), "--plot"])
    assert code == 0
    assert capsys.readouterr().err == ""
    svg = (out / "decomposition.svg").read_text()
    assert "nan" not in svg and "inf" not in svg
    for points in re.findall(r'points="([^"]*)"', svg):
        points_in_box(points)


def test_decompose_derives_each_component_once(tmp_path, capsys, monkeypatch):
    # the printed extrema count and value range come from the one component
    # the files and the chart are written from
    reads = []
    derive = ModeComponent.imf.fget

    def counted(mode):
        reads.append(mode)
        return derive(mode)

    monkeypatch.setattr(ModeComponent, "imf", property(counted))
    code = main(["decompose", "--synth", "random_walk", "--seed", "1", "--plot",
                 "--output-dir", str(tmp_path / "out")])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 7
    assert len(reads) == 7 and len(set(map(id, reads))) == 7


@pytest.mark.parametrize("argv", [
    ["decompose", "--synth", "random_walk", "--seed", "1", "--plot"],
    ["decompose", "--synth", "random_walk", "--seed", "1", "--init", "data"],
    ["filter", "--synth", "two_cosine", "--block-jump", "0:20", "--plot"],
])
def test_cli_runs_without_the_copying_hand_over(tmp_path, capsys, monkeypatch, argv):
    # with_values is for values from outside; the library never needs it
    def refuse(self, values):
        raise AssertionError("with_values called inside the library")

    monkeypatch.setattr(TimeSeries, "with_values", refuse)
    assert main(argv + ["--output-dir", str(tmp_path / "out")]) == 0


# ---------------------------------------------------------------------------
# filter subcommand
# ---------------------------------------------------------------------------

def test_filter_synth(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["filter", "--synth", "two_cosine", "--output-dir", str(out),
                 "--block-jump", "0:20"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) >= 1
    for line in lines:
        assert PASS_LINE.match(line)
    filtered = read_csv(str(out / "filtered.csv"))
    blocked = read_csv(str(out / "blocked.csv"))
    npt.assert_allclose(filtered.values + blocked.values, two_cosine().values,
                        atol=1e-9)


def test_filter_plot_of_a_long_series_is_small(tmp_path):
    # 3 x 200,000 points, thinned to at most 4 per quarter unit of the
    # 880-unit plot box; drawn whole they take 8.4 MB
    out = tmp_path / "out"
    code = main(["filter", "--synth", "two_cosine", "--span", "199999", "--plot",
                 "--output-dir", str(out)])
    assert code == 0
    text = (out / "filter.svg").read_text()
    assert text.count("<polyline") == 3
    assert (out / "filter.svg").stat().st_size < 1_000_000


def test_filter_plot_points_are_whole_hundredths_in_the_box(tmp_path):
    # each polyline is drawn at scale(0.01), its points in whole hundredths
    out = tmp_path / "out"
    assert main(["filter", "--synth", "two_cosine", "--block-jump", "0:20", "--plot",
                 "--output-dir", str(out)]) == 0
    root = ElementTree.parse(out / "filter.svg").getroot()
    polylines = list(root.iter("{http://www.w3.org/2000/svg}polyline"))
    assert len(polylines) == 3
    for polyline in polylines:
        assert polyline.get("transform") == "scale(0.01)"
        assert len(points_in_box(polyline.get("points"))) > 2


@pytest.mark.parametrize("command", ["filter", "decompose"])
def test_plot_of_an_undecodable_file_name(tmp_path, capsys, command):
    # the input's name is in the chart title; its bytes that are not UTF-8
    # come in as lone surrogates, which the chart shows as "?"
    try:
        src = os.path.join(str(tmp_path), os.fsdecode(b"caf\xe9.csv"))
        write_csv(two_cosine(), src)
    except (OSError, UnicodeError):
        pytest.skip("the OS refuses a file name that is not UTF-8")
    out = tmp_path / "out"
    argv = [command, "--input", src, "--plot", "--output-dir", str(out)]
    if command == "filter":
        argv += ["--block-jump", "0:20"]
    assert main(argv) == 0
    chart = out / ("filter.svg" if command == "filter" else "decomposition.svg")
    assert b" of " + os.path.join(str(tmp_path), "caf?.csv").encode() in chart.read_bytes()


def test_plot_of_a_file_name_with_a_control_character(tmp_path, capsys):
    # the title names the input, and XML allows no U+0001 in it: the chart
    # shows it as "?" and still parses
    src = os.path.join(str(tmp_path), "a\x01b.csv")
    write_csv(two_cosine(), src)
    out = tmp_path / "out"
    assert main(["decompose", "--input", src, "--plot", "--output-dir", str(out)]) == 0
    root = ElementTree.parse(out / "decomposition.svg").getroot()
    title = next(root.iter("{http://www.w3.org/2000/svg}text")).text
    assert title == "decomposition of " + os.path.join(str(tmp_path), "a?b.csv")


def test_filter_noop_message(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["filter", "--synth", "two_cosine", "--output-dir", str(out),
                 "--block-jump", "0:0.1"])
    assert code == 0
    outtext = capsys.readouterr().out
    assert "Pass 0: nothing marked, input passed unchanged" in outtext
    filtered = read_csv(str(out / "filtered.csv"))
    npt.assert_array_equal(filtered.values, two_cosine().values)


def test_filter_multiple_blocks_and_floor(tmp_path):
    out = tmp_path / "out"
    code = main(["filter", "--synth", "two_cosine", "--output-dir", str(out),
                 "--block-jump", "0:5", "--block-jump", "5:20",
                 "--amp-floor", "0.5", "--plot"])
    assert code == 0
    assert (out / "filter.svg").exists()


# ---------------------------------------------------------------------------
# options pass through to the library
# ---------------------------------------------------------------------------

# options the front end keeps for itself; every other one feeds a library call
CLI_OWN_DESTS = {"help", "input", "synth", "output_dir", "plot"}

USAGE = {
    "decompose": """\
usage: fastimd decompose [-h] (--input CSV | --synth KIND) [--output-dir DIR]
                         [--span SPAN] [--step STEP] [--seed SEED]
                         [--amplitude AMPLITUDE] [--period PERIOD]
                         [--phase PHASE] [--plot] [--max-iters MAX_ITERS]
                         [--delta-tol DELTA_TOL]
                         [--extension {even,odd,cyclic}]
                         [--max-modes MAX_MODES] [--init {derivative,data}]""",
    "filter": """\
usage: fastimd filter [-h] (--input CSV | --synth KIND) [--output-dir DIR]
                      [--span SPAN] [--step STEP] [--seed SEED]
                      [--amplitude AMPLITUDE] [--period PERIOD]
                      [--phase PHASE] [--plot] [--max-iters MAX_ITERS]
                      [--delta-tol DELTA_TOL] [--extension {even,odd,cyclic}]
                      [--block-jump LO:HI] [--amp-floor AMP_FLOOR]
                      [--max-passes MAX_PASSES]""",
}


def _recorded(monkeypatch, name: str) -> list:
    """Wrap ``fastimd.cli.<name>`` so each call's arguments, defaults filled
    in, are recorded before the real call runs."""
    real = getattr(fastimd.cli, name)
    signature = inspect.signature(real)
    calls = []

    def record(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        calls.append(bound.arguments)
        return real(*args, **kwargs)

    monkeypatch.setattr(fastimd.cli, name, record)
    return calls


def test_left_out_options_take_the_library_defaults(tmp_path, capsys, monkeypatch):
    decomposed = _recorded(monkeypatch, "decompose")
    filtered = _recorded(monkeypatch, "filter_series")
    generated = _recorded(monkeypatch, "synth")
    assert main(["decompose", "--synth", "two_cosine", "--output-dir", str(tmp_path / "d")]) == 0
    assert main(["filter", "--synth", "two_cosine", "--output-dir", str(tmp_path / "f")]) == 0
    capsys.readouterr()
    max_modes = inspect.signature(decompose).parameters["max_modes"].default
    assert [(call["cfg"], call["max_modes"]) for call in decomposed] == [
        (RefinementConfig(), max_modes)]
    assert [(call["criteria"], call["cfg"]) for call in filtered] == [
        (FilterCriteria(), RefinementConfig())]
    assert [call["params"] for call in generated] == [{}, {}]


def test_given_options_reach_the_library(tmp_path, capsys, monkeypatch):
    decomposed = _recorded(monkeypatch, "decompose")
    filtered = _recorded(monkeypatch, "filter_series")
    generated = _recorded(monkeypatch, "synth")
    refinement = ["--max-iters", "3", "--delta-tol", "0.01", "--extension", "odd"]
    assert main(["decompose", "--synth", "sinusoid", "--span", "200", "--step", "0.5",
                 "--amplitude", "5", "--period", "40", "--phase", "1", *refinement,
                 "--init", "data", "--max-modes", "2", "--output-dir", str(tmp_path / "d")]) == 0
    assert main(["filter", "--synth", "random_walk", "--seed", "4", *refinement,
                 "--block-jump", "0:20", "--block-jump=-inf:5", "--amp-floor", "0.1",
                 "--max-passes", "2", "--output-dir", str(tmp_path / "f")]) == 0
    capsys.readouterr()
    cfg = RefinementConfig(max_iterations=3, delta_tolerance=0.01, extension="odd")
    assert [(call["cfg"], call["max_modes"]) for call in decomposed] == [
        (dataclasses.replace(cfg, initialization="data_function"), 2)]
    assert [(call["criteria"], call["cfg"]) for call in filtered] == [
        (FilterCriteria(jump_time_blocks=((0.0, 20.0), (-math.inf, 5.0)),
                        amplitude_floor=0.1, max_passes=2), cfg)]
    assert [(call["kind"], call["params"]) for call in generated] == [
        ("sinusoid", {"span": 200.0, "step": 0.5, "amplitude": 5.0, "period": 40.0,
                      "phase": 1.0}),
        ("random_walk", {"seed": 4})]


def test_every_option_is_named_after_the_parameter_it_feeds():
    # renaming a library parameter fails here rather than on a user's command line
    generators = {name for kind in SYNTH_KINDS
                  for name in inspect.signature(getattr(fastimd, kind)).parameters}
    config = {field.name for field in dataclasses.fields(RefinementConfig)}
    feeds = {
        "decompose": generators | config | set(inspect.signature(decompose).parameters),
        "filter": generators | config | {field.name for field in dataclasses.fields(FilterCriteria)},
    }
    (commands,) = [action for action in build_parser()._actions
                   if isinstance(action, argparse._SubParsersAction)]
    assert sorted(commands.choices) == sorted(feeds)
    for name, sub in commands.choices.items():
        dests = {action.dest for action in sub._actions}
        assert CLI_OWN_DESTS <= dests
        assert dests - CLI_OWN_DESTS <= feeds[name] - {"data", "cfg"}, name


@pytest.mark.parametrize("command", sorted(USAGE))
def test_usage_is_pinned(capsys, monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")
    assert main([command, "--help"]) == 0
    assert capsys.readouterr().out.split("\n\n")[0] == USAGE[command]
    # a usage error prints the same lines
    assert main([command]) == 1
    assert capsys.readouterr().err.split(f"\nfastimd {command}: error:")[0] == USAGE[command]


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------

def test_exit_1_on_bad_usage(tmp_path, capsys):
    assert main([]) == 1
    assert main(["bogus"]) == 1
    assert main(["decompose"]) == 1  # no input source
    assert main(["decompose", "--synth", "two_cosine", "--no-such-flag"]) == 1
    assert main(["filter", "--synth", "two_cosine", "--block-jump", "5"]) == 1
    capsys.readouterr()
    # only decompose takes --max-modes
    assert main(["filter", "--synth", "two_cosine", "--max-modes", "2"]) == 1
    assert "fastimd: error: unrecognized arguments: --max-modes 2" in capsys.readouterr().err


@pytest.mark.parametrize("bound, error", [
    # the command line parses the bounds; a usage error, as for any typed option
    ("a:b", "fastimd filter: error: argument --block-jump: expected numeric lo:hi, got 'a:b'"),
    # the library checks their order, before any directory is made
    ("9:3", "fastimd: error: jump-time block [9.0, 3.0) is empty"),
], ids=["non-numeric", "empty"])
def test_exit_1_on_bad_block_jump(tmp_path, capsys, bound, error):
    out = tmp_path / "out"
    assert main(["filter", "--synth", "two_cosine", "--block-jump", bound,
                 "--output-dir", str(out)]) == 1
    assert [line for line in capsys.readouterr().err.splitlines() if "error:" in line] == [error]
    assert not out.exists()


def test_negative_block_jump_needs_the_equals_form(tmp_path, capsys):
    # argparse reads a separate argument starting with '-' as an option
    out = str(tmp_path / "out")
    assert main(["filter", "--synth", "two_cosine", "--output-dir", out,
                 "--block-jump=-inf:inf"]) == 0
    capsys.readouterr()
    for bound in ("-inf:inf", "-1:20"):
        assert main(["filter", "--synth", "two_cosine", "--output-dir", out,
                     "--block-jump", bound]) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        errors = [line for line in err.splitlines() if "error:" in line]
        assert errors == ["fastimd filter: error: argument --block-jump: expected one argument"]


def test_exit_1_on_bad_synth(tmp_path, capsys):
    out = str(tmp_path / "out")
    assert main(["decompose", "--synth", "sawtooth", "--output-dir", out]) == 1
    # parameter that the generator does not accept
    assert main(["decompose", "--synth", "two_cosine", "--seed", "3",
                 "--output-dir", out]) == 1
    capsys.readouterr()
    # the library checks the mode count, before the output directory is made
    assert main(["decompose", "--synth", "two_cosine", "--max-modes", "0",
                 "--output-dir", out]) == 1
    assert capsys.readouterr().err == (
        "fastimd: error: max_modes must be a positive integer, got 0\n")
    assert main(["decompose", "--synth", "two_cosine", "--max-iters", "0",
                 "--output-dir", out]) == 1
    capsys.readouterr()
    # a rejected call writes nothing, not even its output directory
    assert not os.path.exists(out)


@pytest.mark.parametrize("argv", [
    ["decompose", "--synth", "sinusoid", "--span", "inf"],
    ["decompose", "--synth", "sinusoid", "--span", "1e400"],
    ["decompose", "--synth", "sinusoid", "--span", "1e300", "--step", "1e-10"],
    ["decompose", "--synth", "sinusoid", "--step", "inf"],
    ["decompose", "--synth", "sinusoid", "--span", "nan"],
    ["decompose", "--synth", "sinusoid", "--delta-tol", "nan"],
    ["filter", "--synth", "sinusoid", "--delta-tol", "nan"],
    ["filter", "--synth", "sinusoid", "--amp-floor", "nan"],
    # a grid of 7 PiB or more, which no allocator grants
    ["decompose", "--synth", "sinusoid", "--span", "1e15"],
    ["filter", "--synth", "random_walk", "--span", "1e16"],
    # values that come out non-finite
    ["decompose", "--synth", "sinusoid", "--phase", "inf"],
    ["decompose", "--synth", "sinusoid", "--period", "1e-320"],
], ids=" ".join)
@pytest.mark.filterwarnings("error")
def test_exit_1_on_non_finite_argument(tmp_path, capsys, argv):
    assert main(argv + ["--output-dir", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith("fastimd: error:")


def test_exit_1_names_a_nan_period(tmp_path, capsys):
    # the period is checked by the number rule, not found later in the values
    assert main(["decompose", "--synth", "sinusoid", "--period", "nan",
                 "--output-dir", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == "fastimd: error: period must be a positive number, got nan\n"


@pytest.mark.parametrize("command", ["decompose", "filter"])
def test_exit_1_on_cyclic_extension_of_open_data(tmp_path, capsys, command):
    out = str(tmp_path / "out")
    assert main([command, "--synth", "random_walk", "--extension", "cyclic",
                 "--output-dir", out]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith("fastimd: error: cyclic extension")
    assert not os.path.exists(out)
    assert main([command, "--synth", "two_cosine", "--extension", "cyclic",
                 "--output-dir", out]) == 0


def test_decompose_two_row_csv(tmp_path, capsys):
    src = tmp_path / "in.csv"
    src.write_text("0,1\n1,2\n")
    out = tmp_path / "out"
    assert main(["decompose", "--input", str(src), "--output-dir", str(out)]) == 0
    assert capsys.readouterr().out == ""
    npt.assert_array_equal(read_csv(str(out / "final_residue.csv")).values, [1.0, 2.0])


def test_exit_2_on_io_failure(tmp_path, capsys):
    assert main(["decompose", "--input", str(tmp_path / "absent.csv")]) == 2
    bad = tmp_path / "bad.csv"
    bad.write_text("0,1\nnope,2\n")
    assert main(["decompose", "--input", str(bad)]) == 2
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    for command in ("decompose", "filter"):
        assert main([command, "--synth", "two_cosine",
                     "--output-dir", str(blocker / "sub")]) == 2
    capsys.readouterr()
    # the chart path is taken by a directory: the rename fails after the CSVs are written
    for command, chart in (("decompose", "decomposition.svg"), ("filter", "filter.svg")):
        out = tmp_path / command
        (out / chart).mkdir(parents=True)
        assert main([command, "--synth", "two_cosine", "--plot",
                     "--output-dir", str(out)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("fastimd: error:")
        assert not list(out.glob("*.tmp"))


@pytest.mark.parametrize("raw", [
    pytest.param("ann\u00e9e,valeur\n0,1\n1,2\n2,3\n".encode("latin-1"), id="latin-1"),
    pytest.param("time,value\n0,1\n1,2\n2,3\n".encode("utf-16"), id="utf-16"),
])
def test_exit_2_on_a_file_that_is_not_utf8(tmp_path, capsys, raw):
    path = tmp_path / "in.csv"
    path.write_bytes(raw)
    assert main(["decompose", "--input", str(path)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith(f"fastimd: error: {path}: ")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command, source", [
    ("decompose", 1e307),
    ("filter", 1e308),
    # the filter bridges overflow where the component does not
    pytest.param("filter", ["--amplitude", "5e307", "--block-jump", "0:20"],
                 id="filter-sinusoid-5e+307"),
    # a spread beyond float64
    pytest.param("decompose", ["--amplitude", "1e308"], id="decompose-sinusoid-1e+308"),
])
def test_exit_3_on_overflow(tmp_path, capsys, command, source):
    if isinstance(source, list):
        argv = [command, "--synth", "sinusoid", *source]
    else:
        # a random walk rescaled to the given spread
        walk = random_walk(3)
        src = str(tmp_path / "huge.csv")
        write_csv(walk.with_values(walk.values * (source / walk.spread)), src)
        argv = [command, "--input", src]
        if command == "filter":
            argv += ["--block-jump", "0:10"]
    argv += ["--output-dir", str(tmp_path / "out")]
    # the error line is the only signal: any numpy warning fails the test
    assert main(argv) == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith("fastimd: error: values overflowed float64")


@pytest.mark.filterwarnings("error")
def test_exit_3_on_times_near_the_float64_limit(tmp_path, capsys):
    # the boundary extension reflects times past the float64 limit
    u = np.linspace(-1.0, 1.0, 41)
    src = str(tmp_path / "wide.csv")
    write_csv(TimeSeries(u * 1.7e308, np.cos(2.0 * np.pi * u)), src)
    assert main(["decompose", "--input", src, "--output-dir", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith("fastimd: error: values overflowed float64")


def test_module_entry_point(tmp_path):
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "fastimd", "decompose", "--synth", "two_cosine",
         "--output-dir", str(out)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert MODE_LINE.match(proc.stdout.strip().splitlines()[0])
    proc = subprocess.run(
        [sys.executable, "-m", "fastimd", "decompose"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1
    assert proc.stderr != ""
