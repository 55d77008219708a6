"""Command-line front end: decompose and filter subcommands.

Options pass through to the library. One left out is not passed on, so it
takes the default of the call it feeds (``RefinementConfig``,
``FilterCriteria``, ``decompose`` or a synthetic generator), documented
there, and the library checks every value given. The output directory is
made only once the library call has returned, so a rejected call writes
nothing. ``main`` alone maps failures to exit codes.

Exit codes: 0 success, 1 invalid arguments, 2 I/O failure, 3 numeric failure
(values that overflow float64).
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from typing import Sequence

from .csvio import read_csv, write_csv
from .extension import EXTENSION_KINDS
from .filtering import FilterCriteria, filter_series
from .imd import RefinementConfig, decompose
from .series import find_extrema
from .signals import SYNTH_KINDS, synth
from .svgplot import render_svg

__all__ = ["main", "run_decompose", "run_filter", "format_mode_line"]

_SYNTH_PARAMS = ("span", "step", "seed", "amplitude", "period", "phase")


def format_mode_line(k: int, extrema_count: int, value_range: tuple, iterations: int,
                     final_delta: float, delta_time: float) -> str:
    lo, hi = value_range
    return (
        f"IMF component {k}, Extrema count: {extrema_count}, "
        f"Value range: [{lo:.3f}, {hi:.3f}], Iterations: {iterations}, "
        f"Delta: {final_delta:.6f} at {delta_time:.2f}"
    )


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad flags by default; the contract here is 1."""

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _jump_block(text: str) -> tuple:
    lo, sep, hi = text.partition(":")
    if not sep:
        raise argparse.ArgumentTypeError(f"expected lo:hi, got {text!r}")
    # the library checks that lo < hi
    try:
        return float(lo), float(hi)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected numeric lo:hi, got {text!r}") from None


def build_parser() -> _Parser:
    parser = _Parser(prog="fastimd", description="Intrinsic mode decomposition and filtering.")
    commands = parser.add_subparsers(dest="command", required=True)
    # an option left out stays absent from the parsed arguments; each dest is
    # the name of the library parameter the option feeds
    dec = commands.add_parser("decompose", help="split a series into modes and a residue",
                              argument_default=argparse.SUPPRESS)
    flt = commands.add_parser("filter", help="remove modes by jump time or amplitude",
                              argument_default=argparse.SUPPRESS)
    for sub in (dec, flt):
        source = sub.add_mutually_exclusive_group(required=True)
        source.add_argument("--input", metavar="CSV", help="input series file")
        source.add_argument("--synth", metavar="KIND", choices=SYNTH_KINDS,
                            help="generate input: %(choices)s")
        sub.add_argument("--output-dir", default=".", metavar="DIR")
        sub.add_argument("--span", type=float, help="synthetic signal span")
        sub.add_argument("--step", type=float, help="synthetic sample step")
        sub.add_argument("--seed", type=int, help="random_walk seed")
        sub.add_argument("--amplitude", type=float, help="sinusoid amplitude")
        sub.add_argument("--period", type=float, help="sinusoid period")
        sub.add_argument("--phase", type=float, help="sinusoid phase")
        sub.add_argument("--plot", action="store_true", default=False,
                         help="also write an SVG chart")
        sub.add_argument("--max-iters", dest="max_iterations", type=int, metavar="MAX_ITERS")
        sub.add_argument("--delta-tol", dest="delta_tolerance", type=float, metavar="DELTA_TOL",
                         help="absolute stop tolerance; default 1e-3 of the value range")
        sub.add_argument("--extension", choices=EXTENSION_KINDS)

    dec.add_argument("--max-modes", type=int)
    dec.add_argument("--init", dest="initialization", choices=("derivative", "data"),
                     help="initial residue: derivative inflection points, or the data itself")

    flt.add_argument("--block-jump", dest="jump_time_blocks", type=_jump_block,
                     action="append", metavar="LO:HI",
                     help="block extrema with edge jump time in [LO, HI); write a "
                          "negative LO with '=', as in --block-jump=-inf:20, since "
                          "a separate argument starting with '-' reads as an option")
    flt.add_argument("--amp-floor", dest="amplitude_floor", type=float, metavar="AMP_FLOOR",
                     help="block extrema with 0 < |value| < AMP_FLOOR")
    flt.add_argument("--max-passes", type=int)
    return parser


def _given(args: argparse.Namespace, names: Sequence[str]) -> dict:
    """The options among ``names`` that the command line gave."""
    return {name: getattr(args, name) for name in names if name in args}


def _config(cls, args: argparse.Namespace):
    """A ``cls`` dataclass from the given options that name its fields."""
    return cls(**_given(args, [field.name for field in dataclasses.fields(cls)]))


def _load_input(args: argparse.Namespace) -> tuple:
    if "input" in args:
        try:
            return read_csv(args.input), args.input
        except ValueError as exc:  # a malformed file is an I/O failure, not a bad argument
            raise OSError(str(exc)) from exc
    try:
        return synth(args.synth, **_given(args, _SYNTH_PARAMS)), f"synth:{args.synth}"
    except (TypeError, MemoryError) as exc:  # an unknown parameter, or a grid too long
        raise ValueError(str(exc)) from exc


def run_decompose(args: argparse.Namespace) -> None:
    """Run the decompose subcommand; ``main`` maps its failures to exit codes."""
    data, source = _load_input(args)
    if getattr(args, "initialization", None) == "data":
        args = argparse.Namespace(**{**vars(args), "initialization": "data_function"})
    cfg = _config(RefinementConfig, args)
    result = decompose(data, cfg, **_given(args, ["max_modes"]))
    os.makedirs(args.output_dir, exist_ok=True)

    lines = []
    chart = {"input": data}
    for k, mode in enumerate(result.modes, start=1):
        # derived on each access: read it once, keep it past this mode only for the chart
        imf = mode.imf
        write_csv(imf, os.path.join(args.output_dir, f"imf_{k}.csv"))
        lines.append(format_mode_line(k, len(find_extrema(imf)),
                                      (imf.values.min(), imf.values.max()),
                                      mode.iterations, mode.final_delta, mode.delta_time))
        if args.plot:
            chart[f"imf {k}"] = imf
    write_csv(result.final_residue, os.path.join(args.output_dir, "final_residue.csv"))
    chart["residue"] = result.final_residue

    for line in lines:
        print(line)
    if args.plot:
        render_svg(chart, os.path.join(args.output_dir, "decomposition.svg"),
                   title=f"decomposition of {source}")


def run_filter(args: argparse.Namespace) -> None:
    """Run the filter subcommand; ``main`` maps its failures to exit codes."""
    data, source = _load_input(args)
    cfg = _config(RefinementConfig, args)
    criteria = _config(FilterCriteria, args)
    result = filter_series(data, criteria, cfg)

    # derived, and raises FloatingPointError if it overflows: read it once,
    # before the output directory is made
    blocked = result.blocked
    os.makedirs(args.output_dir, exist_ok=True)
    write_csv(result.filtered, os.path.join(args.output_dir, "filtered.csv"))
    write_csv(blocked, os.path.join(args.output_dir, "blocked.csv"))

    for p, step in enumerate(result.diagnostics, start=1):
        print(f"Pass {p}: marked {step.marked} extrema, max change {step.max_change:.6f}")
    if not result.diagnostics:
        print("Pass 0: nothing marked, input passed unchanged")
    if args.plot:
        render_svg({"input": data, "filtered": result.filtered, "blocked": blocked},
                   os.path.join(args.output_dir, "filter.svg"), title=f"filter of {source}")


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        (run_decompose if args.command == "decompose" else run_filter)(args)
    except OSError as exc:  # unreadable or malformed input, unwritable output
        return _fail(2, exc)
    except ValueError as exc:  # a checked precondition, e.g. cyclic extension on open ends
        return _fail(1, exc)
    except FloatingPointError as exc:  # values overflowed float64
        return _fail(3, exc)
    return 0


def _fail(code: int, exc: Exception) -> int:
    print(f"fastimd: error: {exc}", file=sys.stderr)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
