"""The benchmark's workloads: inputs from a seed, one entry call each, and
the checks every output must pass.

A workload builds a list of cases in set-up. Timed calls cycle through the
cases, so a run over random walks averages many distinct walks instead of
resting on one. The cosine workload has no random part; its single case is
the same for every seed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import fastimd
import fastimd.cli

# distinct random walks built per run; calls cycle through them
WALK_POOL = 32

# reconstruction tolerance, relative to the input's value spread
RECONSTRUCTION_RTOL = 1e-9


@dataclass
class Case:
    """One entry call's input: the series, plus the CLI's file arguments."""

    series: fastimd.TimeSeries
    label: str
    argv: list[str] = field(default_factory=list)
    cosine: bool = False  # two_cosine input, whose fast part is known


@dataclass
class Outputs:
    """What one entry call produced, as the checks and the record see it."""

    arrays: dict[str, np.ndarray]  # every output array, in a fixed order
    parts: list[np.ndarray]  # must sum back to the input
    fast: np.ndarray | None = None  # fast output with a known reference
    summary: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    build: Callable[[int, int, str], list[Case]]
    call: Callable[[Case], object]
    outputs: Callable[[Case, object], Outputs]


def _decompose_outputs(case: Case, result) -> Outputs:
    arrays = {}
    for k, mode in enumerate(result.modes, start=1):
        arrays[f"imf_{k}"] = mode.imf.values
        arrays[f"residue_{k}"] = mode.residue.values
    arrays["final_residue"] = result.final_residue.values
    parts = [m.imf.values for m in result.modes] + [result.final_residue.values]
    fast = result.modes[0].imf.values if result.modes else None
    summary = {"modes": len(result.modes),
               "iterations": [m.iterations for m in result.modes]}
    return Outputs(arrays, parts, fast, summary)


def _walks(seed: int, n: int, workdir: str) -> list[Case]:
    return [Case(fastimd.random_walk(seed * WALK_POOL + i, span=n - 1),
                 f"random_walk({seed * WALK_POOL + i})")
            for i in range(WALK_POOL)]


def _decompose(case: Case):
    return fastimd.decompose(case.series)


def _cli_case(seed: int, n: int, workdir: str) -> list[Case]:
    """Write the input CSV with this module's own formatter, not csvio, so a
    csvio change cannot move set-up time."""
    series = fastimd.two_cosine(span=n - 1)
    path = os.path.join(workdir, "input.csv")
    rows = zip(series.times.tolist(), series.values.tolist())
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("time,value\n")
        fh.write("".join(f"{t!r},{v!r}\n" for t, v in rows))
    out = os.path.join(workdir, "out")
    argv = ["filter", "--input", os.path.relpath(path), "--block-jump", "0:20", "--plot",
            "--output-dir", os.path.relpath(out)]
    return [Case(series, "two_cosine via csv", argv, cosine=True)]


class CliFailed(Exception):
    pass


def _cli_call(case: Case):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
        code = fastimd.cli.main(case.argv)
    if code != 0:
        raise CliFailed(f"exit code {code}: {err.getvalue().strip()}")
    return code


def _cli_outputs(case: Case, code) -> Outputs:
    """Read the written files back with numpy, not csvio."""
    out = case.argv[case.argv.index("--output-dir") + 1]
    arrays = {}
    for name in ("filtered", "blocked"):
        table = np.loadtxt(os.path.join(out, f"{name}.csv"), delimiter=",", skiprows=1, ndmin=2)
        if not np.array_equal(table[:, 0], case.series.times):
            raise ValueError(f"{name}.csv: time column differs from the input")
        arrays[name] = np.ascontiguousarray(table[:, 1])
    with open(os.path.join(out, "filter.svg"), "rb") as fh:
        arrays["filter.svg"] = np.frombuffer(fh.read(), dtype=np.uint8)
    return Outputs(arrays, [arrays["filtered"], arrays["blocked"]], arrays["blocked"],
                   {"exit_code": code})


WORKLOADS = {
    w.name: w
    for w in (
        Workload("decompose_walk", 20_000, _walks, _decompose, _decompose_outputs),
        Workload("cli_filter_cosine", 200_000, _cli_case, _cli_call, _cli_outputs),
    )
}


def check(case: Case, outputs: Outputs) -> str | None:
    """None when the outputs rebuild the input; otherwise what is wrong."""
    data = case.series.values
    total = np.zeros_like(data)
    for part in outputs.parts:
        if part.shape != data.shape:
            return f"output length {part.shape} differs from input {data.shape}"
        total += part
    err = float(np.max(np.abs(total - data)))
    limit = RECONSTRUCTION_RTOL * case.series.spread
    if not err <= limit:
        return f"outputs sum back to the input within {err:.3g}, limit {limit:.3g}"
    return None


def digests(outputs: Outputs) -> dict[str, str]:
    """sha256 of every output array's bytes."""
    return {name: hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()
            for name, a in outputs.arrays.items()}


def fast_rmse(case: Case, outputs: Outputs) -> float | None:
    """RMSE over the interior 80% of the fast output against the known fast
    component 30 cos(pi t / 15), on cosine inputs only."""
    if outputs.fast is None or not case.cosine:
        return None
    t = case.series.times
    lo, hi = len(t) // 10, len(t) - len(t) // 10
    ref = 30.0 * np.cos(np.pi * t[lo:hi] / 15.0)
    return float(np.sqrt(np.mean((outputs.fast[lo:hi] - ref) ** 2)))
