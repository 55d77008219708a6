"""Command-line front end: decompose and filter subcommands.

Exit codes: 0 success, 1 invalid arguments, 2 I/O failure, 3 numeric failure
(values that overflow float64).
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Sequence

from .csvio import read_csv, write_csv
from .extension import EXTENSION_KINDS
from .filtering import FilterCriteria, filter_series
from .imd import RefinementConfig, decompose
from .signals import SYNTH_KINDS, synth
from .svgplot import render_svg

__all__ = ["main", "run_decompose", "run_filter", "format_mode_line"]


class CliError(Exception):
    """Carries the process exit code alongside the message."""

    def __init__(self, code: int, message: str) -> None:
        super().__init__(message)
        self.code = code


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
    try:
        pair = (float(lo), float(hi))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected numeric lo:hi, got {text!r}") from None
    if not pair[0] < pair[1]:
        raise argparse.ArgumentTypeError(f"need lo < hi in {text!r}")
    return pair


def _add_io_arguments(sub: argparse.ArgumentParser) -> None:
    source = sub.add_mutually_exclusive_group(required=True)
    source.add_argument("--input", metavar="CSV", help="input series file")
    source.add_argument("--synth", metavar="KIND", choices=SYNTH_KINDS,
                        help="generate input: %(choices)s")
    sub.add_argument("--output-dir", default=".", metavar="DIR")
    sub.add_argument("--span", type=float, default=None, help="synthetic signal span")
    sub.add_argument("--step", type=float, default=None, help="synthetic sample step")
    sub.add_argument("--seed", type=int, default=None, help="random_walk seed")
    sub.add_argument("--amplitude", type=float, default=None, help="sinusoid amplitude")
    sub.add_argument("--period", type=float, default=None, help="sinusoid period")
    sub.add_argument("--phase", type=float, default=None, help="sinusoid phase")
    sub.add_argument("--plot", action="store_true", help="also write an SVG chart")


def _add_refinement_arguments(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--max-iters", type=int, default=12)
    sub.add_argument("--delta-tol", type=float, default=None,
                     help="absolute stop tolerance; default 1e-3 of the value range")
    sub.add_argument("--extension", choices=EXTENSION_KINDS, default="even")


def build_parser() -> _Parser:
    parser = _Parser(prog="fastimd", description="Intrinsic mode decomposition and filtering.")
    commands = parser.add_subparsers(dest="command", required=True)

    dec = commands.add_parser("decompose", help="split a series into modes and a residue")
    _add_io_arguments(dec)
    _add_refinement_arguments(dec)
    dec.add_argument("--max-modes", type=int, default=16)
    dec.add_argument("--init", choices=("derivative", "data"), default="derivative",
                     help="initial residue: derivative inflection points, or the data itself")

    flt = commands.add_parser("filter", help="remove modes by jump time or amplitude")
    _add_io_arguments(flt)
    _add_refinement_arguments(flt)
    flt.add_argument("--block-jump", type=_jump_block, action="append", default=[],
                     metavar="LO:HI",
                     help="block extrema with edge jump time in [LO, HI); write a "
                          "negative LO with '=', as in --block-jump=-inf:20, since "
                          "a separate argument starting with '-' reads as an option")
    flt.add_argument("--amp-floor", type=float, default=0.0,
                     help="block extrema with 0 < |value| < AMP_FLOOR")
    flt.add_argument("--max-passes", type=int, default=8)
    return parser


def _load_input(args: argparse.Namespace) -> tuple:
    if args.input is not None:
        try:
            return read_csv(args.input), args.input
        except ValueError as exc:  # a malformed file is an I/O failure, not a bad argument
            raise CliError(2, str(exc)) from exc
    params = {}
    for name in ("span", "step", "seed", "amplitude", "period", "phase"):
        value = getattr(args, name)
        if value is not None:
            params[name] = value
    try:
        return synth(args.synth, **params), f"synth:{args.synth}"
    except (TypeError, MemoryError) as exc:  # an unknown parameter, or a grid too long
        raise CliError(1, str(exc)) from exc


def _refinement_config(args: argparse.Namespace, initialization: str) -> RefinementConfig:
    return RefinementConfig(
        max_iterations=args.max_iters,
        delta_tolerance=args.delta_tol,
        extension=args.extension,
        initialization=initialization,
    )


def run_decompose(args: argparse.Namespace) -> None:
    """Run the decompose subcommand; ``main`` maps its failures to exit codes."""
    data, source = _load_input(args)
    cfg = _refinement_config(args, "data_function" if args.init == "data" else "derivative")
    if args.max_modes < 1:
        raise CliError(1, "--max-modes must be at least 1")
    os.makedirs(args.output_dir, exist_ok=True)
    result = decompose(data, cfg, max_modes=args.max_modes)

    lines = []
    chart = {"input": data}
    for k, mode in enumerate(result.modes, start=1):
        write_csv(mode.imf, os.path.join(args.output_dir, f"imf_{k}.csv"))
        write_csv(mode.residue, os.path.join(args.output_dir, f"residue_{k}.csv"))
        lines.append(format_mode_line(k, mode.extrema_count, mode.value_range,
                                      mode.iterations, mode.final_delta, mode.delta_time))
        chart[f"imf {k}"] = mode.imf
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
    cfg = _refinement_config(args, "derivative")
    criteria = FilterCriteria(
        jump_time_blocks=tuple(args.block_jump),
        amplitude_floor=args.amp_floor,
        max_passes=args.max_passes,
    )
    os.makedirs(args.output_dir, exist_ok=True)
    result = filter_series(data, criteria, cfg)

    write_csv(result.filtered, os.path.join(args.output_dir, "filtered.csv"))
    write_csv(result.blocked, os.path.join(args.output_dir, "blocked.csv"))

    for p, step in enumerate(result.diagnostics, start=1):
        print(f"Pass {p}: marked {step.marked} extrema, max change {step.max_change:.6f}")
    if not result.diagnostics:
        print("Pass 0: nothing marked, input passed unchanged")
    if args.plot:
        render_svg({"input": data, "filtered": result.filtered, "blocked": result.blocked},
                   os.path.join(args.output_dir, "filter.svg"), title=f"filter of {source}")


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        (run_decompose if args.command == "decompose" else run_filter)(args)
    except CliError as exc:
        return _fail(exc.code, exc)
    except OSError as exc:  # unreadable input, unwritable output
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
