"""Self-tests for the benchmark harness, on small inputs.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

import run
import spans

SMALL_N = 2000


def _spec_names(kind):
    return [m["name"] for m in run.load_spec()[kind]]


def _bindings():
    """Identity of every attribute of every fastimd module and traced class."""
    import fastimd

    owners = [m for name, m in sys.modules.items()
              if name == "fastimd" or name.startswith("fastimd.")]
    owners += [fastimd.TimeSeries, fastimd.CubicSpline]
    return {(repr(o), k): id(v) for o in owners for k, v in list(vars(o).items())}


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_every_layer_metric_appears_and_traced_outputs_match(name, tmp_path):
    wl, cases, _ = run.setup(name, 1, str(tmp_path), n=SMALL_N)
    result = run.measure_traced(wl, cases, 0.0, spans.Tracer())
    assert result["failures"] == []
    layers = result["layers"]
    assert sorted(layers) == sorted(_spec_names("per_layer"))
    assert layers["series.find_extrema.calls"] > 0
    assert layers["imd.refine_once.calls"] > 0
    assert layers["spline.build.knots"] > 0
    if name == "decompose_walk":
        assert layers["imd.modes"] > 1
        assert layers["filtering.passes"] == 0
        assert layers["csvio.read_csv.rows"] == 0
        assert layers["svgplot.render_svg.points"] == 0
    else:
        assert layers["filtering.passes"] > 0
        assert layers["filtering.marked_runs"] > 0
        assert 0.0 < layers["filtering.marked_ratio"] <= 1.0
        assert layers["csvio.read_csv.rows"] == SMALL_N
        assert layers["csvio.write_csv.files"] == 2
        assert layers["csvio.write_csv.rows"] == 2 * SMALL_N
        assert layers["svgplot.render_svg.points"] == 3 * SMALL_N
        assert layers["cli.main.self_s"] > 0.0


def test_counts_repeat_exactly(tmp_path):
    wl, cases, _ = run.setup("cli_filter_cosine", 3, str(tmp_path), n=SMALL_N)
    first = run.measure_traced(wl, cases, 0.0, spans.Tracer())["layers"]
    second = run.measure_traced(wl, cases, 0.0, spans.Tracer())["layers"]
    counts = [m["name"] for m in run.load_spec()["per_layer"] if m["unit"] in ("count", "B")]
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}


def test_tracer_restores_every_binding(tmp_path):
    import fastimd

    wl, cases, _ = run.setup("cli_filter_cosine", 1, str(tmp_path), n=SMALL_N)
    before = _bindings()
    original = fastimd.imd.find_extrema
    tracer = spans.Tracer()
    with tracer:
        assert fastimd.imd.find_extrema is not original
        assert fastimd.filtering.find_extrema is fastimd.series.find_extrema
        with tracer.entry():
            wl.call(cases[0])
    assert _bindings() == before
    assert fastimd.imd.find_extrema is original
    assert {s.name for s in tracer.spans} >= {"cli.main", "csvio.read_csv", "spline.evaluate"}


def test_self_time_excludes_children(tmp_path):
    wl, cases, _ = run.setup("decompose_walk", 2, str(tmp_path), n=SMALL_N)
    tracer = spans.Tracer()
    with tracer, tracer.entry() as call:
        wl.call(cases[0])
    by_id = {s.id: s for s in tracer.spans}
    entry = by_id[call]
    assert all(s.call == call for s in tracer.spans)
    assert sum(s.self_s for s in tracer.spans) <= entry.end - entry.start
    for s in tracer.spans:
        if s.parent is not None:
            parent = by_id[s.parent]
            assert parent.start <= s.start <= s.end <= parent.end


def _corrupt_decompose(monkeypatch):
    import fastimd

    real = fastimd.decompose

    def corrupted(data, *args, **kwargs):
        result = real(data, *args, **kwargs)
        mode = result.modes[0]
        bad = dataclasses.replace(mode, imf=mode.imf.with_values(mode.imf.values + 1.0))
        return dataclasses.replace(result, modes=(bad,) + result.modes[1:])

    monkeypatch.setattr(fastimd, "decompose", corrupted)


def _corrupt_csv(monkeypatch):
    import fastimd.cli

    real = fastimd.cli.write_csv

    def corrupted(series, path):
        real(series.with_values(series.values * 1.001), path)

    monkeypatch.setattr(fastimd.cli, "write_csv", corrupted)


@pytest.mark.parametrize("name, corrupt", [("decompose_walk", _corrupt_decompose),
                                           ("cli_filter_cosine", _corrupt_csv)])
def test_corrupted_output_makes_failed_ratio_nonzero(name, corrupt, tmp_path, monkeypatch):
    wl, cases, _ = run.setup(name, 1, str(tmp_path), n=SMALL_N)
    assert run.measure(wl, cases, 0.0)["failures"] == []
    corrupt(monkeypatch)
    result = run.measure(wl, cases, 0.0)
    assert result["attempted"] >= 1
    assert len(result["failures"]) == result["attempted"]


def test_end_to_end_metrics_and_record(tmp_path):
    wl, cases, setup_s = run.setup("decompose_walk", 1, str(tmp_path), n=SMALL_N)
    result = run.measure(wl, cases, 0.0)
    metrics = run.end_to_end(wl, result, [setup_s])
    assert sorted(metrics) == sorted(_spec_names("end_to_end"))
    assert all(v > 0.0 for v in metrics.values())
    record = result["cases"][0]
    assert record["modes"] == len(record["iterations"]) > 0
    assert len(record["digests"]) == 2 * record["modes"] + 1
    assert record["fast_rmse"] is None

    wl, cases, _ = run.setup("cli_filter_cosine", 1, str(tmp_path), n=SMALL_N)
    record = run.measure(wl, cases, 0.0)["cases"][0]
    assert sorted(record["digests"]) == ["blocked", "filter.svg", "filtered"]
    assert 0.0 < record["fast_rmse"] < 30.0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    spec = json.loads((tmp_path / "BENCHMARK.json").read_text())
    proc = subprocess.run(spec["command"] + ["--workload", "decompose_walk", "--seed", "1",
                                             "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60,
                          env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
    assert "fastimd" in proc.stderr
