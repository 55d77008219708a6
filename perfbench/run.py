#!/usr/bin/env python3
"""Run one fastimd benchmark workload and print its metrics.

    python3 perfbench/run.py --workload decompose_walk --seed 1 --seconds 60 --trace 0

Run from the repository root; the program is imported from ``src/``. With
``--trace 0`` the last stdout line is a JSON object holding the end-to-end
metrics; with ``--trace 1`` it holds the per-layer metrics of a traced run.
``--workload all`` runs every workload in its own process, one after
another, and prints them together. Records and spans go to
``.perfbench_out/``. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

# one thread per process, set before anything imports numpy
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
WORKLOAD_NAMES = ("decompose_walk", "cli_filter_cosine")

# set-up is timed this many times per run, once in the run's own process and
# the rest in fresh processes between calls; the median is reported
SETUP_SAMPLES = 5


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def setup(name: str, seed: int, workdir: str, n: int | None = None):
    """Import fastimd, build the workload's cases; returns them with the
    seconds it took. Only the first call in a process pays the import."""
    start = time.perf_counter()
    if not os.path.isfile(os.path.join(SRC, "fastimd", "__init__.py")):
        raise BenchError(f"no fastimd sources under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    workloads = importlib.import_module("workloads")
    fastimd_file = os.path.abspath(sys.modules["fastimd"].__file__)
    if not fastimd_file.startswith(SRC + os.sep):
        raise BenchError(f"imported fastimd from {fastimd_file}, not from {SRC}")
    wl = workloads.WORKLOADS[name]
    if n is not None:
        wl = dataclasses.replace(wl, n=n)
    cases = wl.build(seed, wl.n, workdir)
    return wl, cases, time.perf_counter() - start


def _attempt(wl, case, around=None):
    """One timed entry call, then its checks outside the timed region.

    Returns (seconds or None if it raised, outputs or None, error or None).
    """
    import workloads

    start = time.perf_counter()
    try:
        with around if around is not None else contextlib.nullcontext():
            result = wl.call(case)
    except Exception:  # a failing call is counted and reported, never fatal
        return None, None, traceback.format_exc(limit=3)
    seconds = time.perf_counter() - start
    try:
        outputs = wl.outputs(case, result)
    except (OSError, ValueError) as exc:
        return seconds, None, f"reading outputs: {exc}"
    return seconds, outputs, workloads.check(case, outputs)


def _case_record(case, outputs) -> dict:
    import workloads

    return {"case": case.label, **outputs.summary,
            "fast_rmse": workloads.fast_rmse(case, outputs),
            "digests": workloads.digests(outputs)}


def _time_left(start: float, seconds: float, times: list[float]) -> bool:
    """Whether another call of median length still ends within ``seconds``."""
    typical = statistics.median(times) if times else 0.0
    return time.perf_counter() - start + typical <= seconds


def measure(wl, cases, seconds: float, between=None) -> dict:
    """Untraced calls cycling through the cases until ``seconds`` pass.

    ``between(elapsed)``, if given, runs after each call, inside the window.
    """
    times, failures, records = [], [], {}
    attempted = 0
    start = time.perf_counter()
    while attempted == 0 or _time_left(start, seconds, times):
        k = attempted % len(cases)
        elapsed, outputs, error = _attempt(wl, cases[k])
        attempted += 1
        if elapsed is not None:
            times.append(elapsed)
        if error is not None:
            failures.append({"case": cases[k].label, "error": error})
        elif k not in records:
            records[k] = _case_record(cases[k], outputs)
        del outputs
        if between is not None:
            between(time.perf_counter() - start)
    return {"times": times, "attempted": attempted, "failures": failures,
            "cases": [records[k] for k in sorted(records)]}


def measure_traced(wl, cases, seconds: float, tracer) -> dict:
    """Untraced and traced calls on the first case, in pairs, until
    ``seconds`` pass. Traced outputs must hash the same as untraced ones."""
    import spans
    import workloads

    case = cases[0]
    plain, traced, per_call, failures, records = [], [], [], [], []
    attempted = 0
    start = time.perf_counter()
    while attempted == 0 or _time_left(start, seconds, [a + b for a, b in zip(plain, traced)]):
        elapsed, outputs, error = _attempt(wl, case)
        attempted += 1
        if error is not None:
            failures.append({"case": case.label, "error": error})
            continue
        plain.append(elapsed)
        expected = workloads.digests(outputs)
        if not records:
            records.append(_case_record(case, outputs))
        del outputs
        entry = tracer.entry()
        with tracer:
            elapsed, outputs, error = _attempt(wl, case, around=entry)
        attempted += 1
        if error is None and workloads.digests(outputs) != expected:
            error = "traced outputs hash differently from untraced ones"
        if error is not None:
            failures.append({"case": case.label, "traced": True, "error": error})
            continue
        del outputs
        traced.append(elapsed)
        per_call.append(spans.layer_metrics(tracer.call_totals(entry.frame.id)))
    metrics = spans.median_metrics(per_call) if per_call else {}
    if plain and traced:
        metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    return {"times": plain, "traced_times": traced, "attempted": attempted,
            "failures": failures, "cases": records, "layers": metrics}


def end_to_end(wl, run: dict, setup_times: list[float]) -> dict[str, float]:
    times = run["times"]
    return {
        "samples_per_s": wl.n * len(times) / sum(times) if times else 0.0,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def _probe_setup(args) -> float:
    """Set-up timed in a fresh process, so it pays the import again."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
         "--seed", str(args.seed), "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise BenchError(f"set-up probe failed: {proc.stderr.strip()}")
    return float(proc.stdout.strip().splitlines()[-1])


def _git_rev() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _host() -> dict:
    import numpy

    return {"git_rev": _git_rev(), "python": platform.python_version(),
            "numpy": numpy.__version__, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)), "machine": platform.machine()}


def _write_json(path: str, payload) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")


def run_one(args) -> dict:
    spec = load_spec()
    # a fixed directory per workload keeps the CLI's paths, and so its chart
    # title, the same in every run
    workdir = os.path.join(OUT, "work", args.workload + ("-probe" if args.setup_probe else ""))
    os.makedirs(workdir, exist_ok=True)
    try:
        wl, cases, first_setup = setup(args.workload, args.seed, workdir)
        if args.setup_probe:
            print(repr(first_setup))
            return {}
        setup_times = [first_setup]
        tracer = None
        if args.trace:
            import spans

            tracer = spans.Tracer()
            run = measure_traced(wl, cases, args.seconds, tracer)
            values = run["layers"]
            wanted = spec["per_layer"]
        else:
            # the probes are spread over the run, so that one slow stretch
            # of the host does not set every sample
            def probe_when_due(elapsed: float) -> None:
                due = (len(setup_times) - 1) * args.seconds / (SETUP_SAMPLES - 1)
                if len(setup_times) < SETUP_SAMPLES and elapsed >= due:
                    setup_times.append(_probe_setup(args))

            run = measure(wl, cases, args.seconds, between=probe_when_due)
            while len(setup_times) < SETUP_SAMPLES:
                setup_times.append(_probe_setup(args))
            values = end_to_end(wl, run, setup_times)
            wanted = spec["end_to_end"]
    finally:
        import shutil

        shutil.rmtree(workdir, ignore_errors=True)

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    failed = len(run["failures"])
    quality = [c["fast_rmse"] for c in run["cases"] if c.get("fast_rmse") is not None]
    record = {**_host(), "workload": args.workload, "n": wl.n, "seed": args.seed,
              "trace": args.trace, "seconds": args.seconds, "cases_built": len(cases),
              "setup_s": setup_times, "call_s": run["times"],
              "traced_call_s": run.get("traced_times"), "attempted": run["attempted"],
              "failed": failed, "failures": run["failures"], "cases": run["cases"],
              "metrics": values}
    _write_json(os.path.join(OUT, f"record-{tag}.json"), record)
    if tracer is not None:
        _write_json(os.path.join(OUT, f"spans-{tag}.json"), tracer.dump())

    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise BenchError(f"metrics not produced: {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    p50 = statistics.median(run["times"]) if run["times"] else float("nan")
    print(f"# {args.workload}: n={wl.n} seed={args.seed} trace={args.trace} "
          f"calls={len(run['times'])} call_s_p50={p50:.6g}s attempted={run['attempted']} "
          f"failed={failed} failed_ratio={failed / run['attempted']:g}")
    if quality:
        print(f"#   fast_rmse {statistics.median(quality):.6g} (quality, interior 80%)")
    for name, m in metrics.items():
        print(f"#   {name} {m['value']:.6g} {m['unit']}")
    for failure in run["failures"][:3]:
        print(f"#   FAILED {failure['case']}: {failure['error'].strip().splitlines()[-1]}")
    return {"correct": failed == 0, "attempted": run["attempted"], "failed": failed,
            "metrics": metrics}


def run_all(args) -> dict:
    """Every workload in its own fresh process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stdout.write("".join(proc.stdout.splitlines(keepends=True)[:-1]))
        if proc.returncode != 0:
            raise BenchError(f"{name} failed: {proc.stderr.strip()}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, m in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = m
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        result = run_all(args) if args.workload == "all" else run_one(args)
    except (BenchError, OSError, json.JSONDecodeError, subprocess.SubprocessError) as exc:
        print(f"perfbench: error: {exc}", file=sys.stderr)
        return 2
    if result:
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
