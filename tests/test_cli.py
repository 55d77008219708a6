"""Tests for the command-line front end and CSV handling.

Exit code contract: 0 success, 1 invalid arguments, 2 I/O failure, 3
numeric failure (non-finite output, or values that overflow float64).  The
per-mode diagnostics line is pinned character by character; everything else
goes through ``main()`` in process, with one subprocess check that the module
entry point behaves the same.
"""

import re
import subprocess
import sys

import numpy as np
import numpy.testing as npt
import pytest

from fastimd import TimeSeries, random_walk, read_csv, two_cosine, write_csv
from fastimd.cli import CliError, _write_series, format_mode_line, main
from fastimd.csvio import _CHUNK

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


def _reference_csv_text(times, values) -> str:
    """``write_csv``'s output as it was formatted one row at a time."""
    rows = "".join(f"{t:.17g},{v:.17g}\n" for t, v in zip(times, values))
    return "time,value\n" + rows


@pytest.mark.parametrize("n", [2, _CHUNK - 1, _CHUNK, _CHUNK + 1, 3 * _CHUNK + 5])
def test_csv_bytes_match_per_row_reference(tmp_path, n):
    rng = np.random.default_rng(n)
    times = -50.0 + np.cumsum(rng.uniform(1e-3, 2.0, n))  # irregular grid
    values = rng.normal(scale=1e3, size=n)
    specials = [-0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308, 0.1]
    values[:min(n, len(specials))] = specials[:n]
    values[-1] = -0.0
    path = tmp_path / "pin.csv"
    write_csv(TimeSeries(times, values), str(path))
    assert path.read_bytes() == _reference_csv_text(times, values).encode("utf-8")


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
    for name in ("imf_1.csv", "residue_1.csv", "imf_2.csv", "residue_2.csv",
                 "final_residue.csv"):
        assert (out / name).exists()
    # written components telescope back to the generated input
    s = two_cosine()
    total = read_csv(str(out / "final_residue.csv")).values.copy()
    total += read_csv(str(out / "imf_1.csv")).values
    total += read_csv(str(out / "imf_2.csv")).values
    npt.assert_allclose(total, s.values, atol=1e-9)


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
# exit codes
# ---------------------------------------------------------------------------

def test_exit_1_on_bad_usage(tmp_path, capsys):
    assert main([]) == 1
    assert main(["bogus"]) == 1
    assert main(["decompose"]) == 1  # no input source
    assert main(["decompose", "--synth", "two_cosine", "--no-such-flag"]) == 1
    assert main(["filter", "--synth", "two_cosine", "--block-jump", "5"]) == 1
    assert main(["filter", "--synth", "two_cosine", "--block-jump", "9:3"]) == 1
    capsys.readouterr()


def test_exit_1_on_bad_synth(tmp_path, capsys):
    out = str(tmp_path / "out")
    assert main(["decompose", "--synth", "sawtooth", "--output-dir", out]) == 1
    # parameter that the generator does not accept
    assert main(["decompose", "--synth", "two_cosine", "--seed", "3",
                 "--output-dir", out]) == 1
    assert main(["decompose", "--synth", "two_cosine", "--max-modes", "0",
                 "--output-dir", out]) == 1
    assert main(["decompose", "--synth", "two_cosine", "--max-iters", "0",
                 "--output-dir", out]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("command", ["decompose", "filter"])
def test_exit_1_on_cyclic_extension_of_open_data(tmp_path, capsys, command):
    out = str(tmp_path / "out")
    assert main([command, "--synth", "random_walk", "--extension", "cyclic",
                 "--output-dir", out]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith("fastimd: error: cyclic extension")
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
    assert main(["decompose", "--synth", "two_cosine",
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


def test_exit_3_on_non_finite_output(tmp_path):
    # build a non-finite series behind the constructor's back to simulate
    # an overflow that happened downstream
    t = np.arange(3.0)
    series = TimeSeries.__new__(TimeSeries)
    object.__setattr__(series, "times", t)
    object.__setattr__(series, "values", np.array([1.0, np.inf, 2.0]))
    with pytest.raises(CliError) as err:
        _write_series(str(tmp_path / "x.csv"), series)
    assert err.value.code == 3
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command, spread", [("decompose", 1e307), ("filter", 1e308)])
def test_exit_3_on_overflow(tmp_path, capsys, command, spread):
    walk = random_walk(3)
    src = str(tmp_path / "huge.csv")
    write_csv(walk.with_values(walk.values * (spread / walk.spread)), src)
    argv = [command, "--input", src, "--output-dir", str(tmp_path / "out")]
    if command == "filter":
        argv += ["--block-jump", "0:10"]
    # the error line is the only signal: any numpy warning fails the test
    assert main(argv) == 3
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
