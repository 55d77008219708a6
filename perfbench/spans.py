"""Span recorder for the traced benchmark run.

While a ``Tracer`` is installed, every binding of the traced ``fastimd``
functions is replaced by a timing wrapper: the name in the defining module
and in every other ``fastimd`` module that imported it. Three methods are
wrapped on their class instead. Leaving the ``with`` block puts every
original back. Nothing under ``src/`` is edited.

Each wrapper records one span: name, start, end, parent and the id of the
entry call it belongs to, plus a few counts taken from the arguments and
the result. Counting happens outside the span, and its cost is also kept
out of the parent's self time, so self times measure the library alone.
"""

from __future__ import annotations

import functools
import os
import statistics
import sys
import time
from dataclasses import dataclass, field

import numpy as np

# (span name, defining module, attribute)
FUNCTIONS = (
    ("series.find_extrema", "fastimd.series", "find_extrema"),
    ("series.differentiate", "fastimd.series", "differentiate"),
    ("imd.decompose", "fastimd.imd", "decompose"),
    ("imd.extract_mode", "fastimd.imd", "extract_mode"),
    ("imd.initial_residue", "fastimd.imd", "initial_residue"),
    ("imd.refine_once", "fastimd.imd", "refine_once"),
    ("imd.median_points", "fastimd.imd", "median_points"),
    ("extension.extend", "fastimd.extension", "extend"),
    ("filtering.filter_series", "fastimd.filtering", "filter_series"),
    ("filtering.mark_extrema", "fastimd.filtering", "mark_extrema"),
    ("filtering.build_passed_function", "fastimd.filtering", "build_passed_function"),
    ("csvio.read_csv", "fastimd.csvio", "read_csv"),
    ("csvio.write_csv", "fastimd.csvio", "write_csv"),
    ("svgplot.render_svg", "fastimd.svgplot", "render_svg"),
    ("cli.main", "fastimd.cli", "main"),
)

# (span name, defining module, class, method)
METHODS = (
    ("series.timeseries", "fastimd.series", "TimeSeries", "__post_init__"),
    ("spline.build", "fastimd.spline", "CubicSpline", "__init__"),
    ("spline.evaluate", "fastimd.spline", "CubicSpline", "evaluate_on_grid"),
)


@dataclass
class Span:
    id: int
    call: int | None
    name: str
    parent: int | None
    start: float
    end: float
    self_s: float
    counts: dict = field(default_factory=dict)


@dataclass
class _Frame:
    id: int
    cover: float = 0.0  # wall time of child wrappers, bookkeeping included


class Tracer:
    """Installs the wrappers on enter, restores the originals on exit."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[_Frame] = []
        self._call: int | None = None
        self._next_id = 0
        self._restore: list[tuple[object, str, object]] = []
        self._originals: dict[str, object] = {}

    # -- installation -----------------------------------------------------

    def __enter__(self) -> "Tracer":
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "fastimd" or name.startswith("fastimd."))]
        for span_name, module, attr in FUNCTIONS:
            original = getattr(sys.modules[module], attr)
            self._originals[span_name] = original
            wrapper = self._wrap(span_name, original, _COUNTERS.get(span_name))
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, name, value))
                        setattr(mod, name, wrapper)
        for span_name, module, cls_name, meth in METHODS:
            cls = getattr(sys.modules[module], cls_name)
            original = cls.__dict__[meth]
            self._restore.append((cls, meth, original))
            setattr(cls, meth, self._wrap(span_name, original, _COUNTERS.get(span_name)))
        return self

    def __exit__(self, *exc) -> None:
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()

    def original(self, span_name: str):
        """The unwrapped function behind a traced name, for counting."""
        return self._originals[span_name]

    # -- recording --------------------------------------------------------

    def entry(self):
        """Context manager for one entry call; its spans share an id."""
        return _Entry(self)

    def _open(self) -> _Frame:
        frame = _Frame(self._next_id)
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _wrap(self, name, fn, counter):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outer = time.perf_counter()
            parent = tracer._stack[-1] if tracer._stack else None
            frame = tracer._open()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
            counts = counter(tracer, args, result) if counter else {}
            tracer.spans.append(Span(frame.id, tracer._call, name,
                                     parent.id if parent else None, start, end,
                                     end - start - frame.cover, counts))
            if parent is not None:
                parent.cover += time.perf_counter() - outer
            return result

        return wrapper

    # -- aggregation ------------------------------------------------------

    def call_totals(self, call: int) -> dict[str, dict]:
        """Per span name: calls, summed self time and summed counts."""
        totals: dict[str, dict] = {}
        for span in self.spans:
            if span.call != call:
                continue
            agg = totals.setdefault(span.name, {"calls": 0, "self_s": 0.0})
            agg["calls"] += 1
            agg["self_s"] += span.self_s
            for key, value in span.counts.items():
                agg[key] = agg.get(key, 0) + value
        return totals

    def dump(self) -> list[dict]:
        return [vars(span) for span in self.spans]


class _Entry:
    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer

    def __enter__(self) -> int:
        tr = self.tracer
        self.frame = tr._open()
        tr._call = self.frame.id
        self.start = time.perf_counter()
        return self.frame.id

    def __exit__(self, *exc) -> None:
        tr = self.tracer
        end = time.perf_counter()
        tr._stack.pop()
        tr.spans.append(Span(self.frame.id, self.frame.id, "entry", None, self.start, end,
                             end - self.start - self.frame.cover))
        tr._call = None


# -- counters: (tracer, args, result) -> counts ---------------------------

def _count_find_extrema(tr, args, result):
    values = args[0].values
    return {"samples": len(values), "extrema": len(result),
            "plateau_inputs": int(bool(np.any(np.diff(values) == 0.0)))}


def _count_extract_mode(tr, args, result):
    if result is None:
        return {}
    return {"modes": 1, "kept": result.iterations, "passes": len(result.delta_history)}


def _count_refine_once(tr, args, result):
    return {} if result is None else {"control_points": result[2]}


def _count_median_points(tr, args, result):
    v = np.asarray(args[1], dtype=np.float64)
    return {"points": len(result[1]), "replaced": int(np.count_nonzero(result[1] != v[2:-2]))}


def _count_filter_series(tr, args, result):
    return {"passes": result.passes}


def _count_mark_extrema(tr, args, result):
    scanned = len(tr.original("series.find_extrema")(args[0]))
    return {"runs": len(result), "marked": sum(len(run.extrema) for run in result),
            "scanned": scanned}


def _count_read_csv(tr, args, result):
    return {"rows": len(result), "bytes": os.path.getsize(args[0])}


def _count_write_csv(tr, args, result):
    return {"rows": len(args[0]), "bytes": os.path.getsize(args[1]), "files": 1}


def _count_render_svg(tr, args, result):
    return {"points": sum(len(s) for s in args[0].values()),
            "bytes": os.path.getsize(args[1])}


def _count_spline_build(tr, args, result):
    return {"knots": len(args[0].t)}


def _count_spline_evaluate(tr, args, result):
    return {"points": len(result)}


_COUNTERS = {
    "series.find_extrema": _count_find_extrema,
    "imd.extract_mode": _count_extract_mode,
    "imd.refine_once": _count_refine_once,
    "imd.median_points": _count_median_points,
    "filtering.filter_series": _count_filter_series,
    "filtering.mark_extrema": _count_mark_extrema,
    "csvio.read_csv": _count_read_csv,
    "csvio.write_csv": _count_write_csv,
    "svgplot.render_svg": _count_render_svg,
    "spline.build": _count_spline_build,
    "spline.evaluate": _count_spline_evaluate,
}


# -- per-layer metrics ----------------------------------------------------

def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return scale * num / den if den else 0.0


def layer_metrics(totals: dict[str, dict]) -> dict[str, float]:
    """Per-layer metrics of one entry call from its span totals."""

    def g(name: str, key: str):
        return totals.get(name, {}).get(key, 0)

    ext, med, mode = "series.find_extrema", "imd.median_points", "imd.extract_mode"
    build, ev, mark = "spline.build", "spline.evaluate", "filtering.mark_extrema"
    read, write, svg = "csvio.read_csv", "csvio.write_csv", "svgplot.render_svg"
    return {
        "series.find_extrema.calls": g(ext, "calls"),
        "series.find_extrema.self_s": g(ext, "self_s"),
        "series.find_extrema.samples": g(ext, "samples"),
        "series.find_extrema.extrema": g(ext, "extrema"),
        "series.find_extrema.plateau_inputs": g(ext, "plateau_inputs"),
        "series.differentiate.self_s": g("series.differentiate", "self_s"),
        "series.timeseries.constructs": g("series.timeseries", "calls"),
        "series.timeseries.self_s": g("series.timeseries", "self_s"),
        "imd.extract_mode.calls": g(mode, "calls"),
        "imd.extract_mode.self_s": g(mode, "self_s"),
        "imd.modes": g(mode, "modes"),
        "imd.refine_once.calls": g("imd.refine_once", "calls"),
        "imd.refine_once.self_s": g("imd.refine_once", "self_s"),
        "imd.refine_once.kept_ratio": _ratio(g(mode, "kept"), g(mode, "passes")),
        "imd.control_points": g("imd.refine_once", "control_points"),
        "imd.initial_residue.self_s": g("imd.initial_residue", "self_s"),
        "imd.median_points.self_s": g(med, "self_s"),
        "imd.median_points.points": g(med, "points"),
        "imd.median_points.replaced": g(med, "replaced"),
        "imd.median_points.replaced_ratio": _ratio(g(med, "replaced"), g(med, "points")),
        "extension.extend.calls": g("extension.extend", "calls"),
        "extension.extend.self_s": g("extension.extend", "self_s"),
        "spline.build.calls": g(build, "calls"),
        "spline.build.knots": g(build, "knots"),
        "spline.build.self_s": g(build, "self_s"),
        "spline.build.ns_per_knot": _ratio(g(build, "self_s"), g(build, "knots"), 1e9),
        "spline.evaluate.calls": g(ev, "calls"),
        "spline.evaluate.points": g(ev, "points"),
        "spline.evaluate.self_s": g(ev, "self_s"),
        "spline.evaluate.ns_per_point": _ratio(g(ev, "self_s"), g(ev, "points"), 1e9),
        "filtering.passes": g("filtering.filter_series", "passes"),
        "filtering.mark_extrema.self_s": g(mark, "self_s"),
        "filtering.marked_runs": g(mark, "runs"),
        "filtering.marked_extrema": g(mark, "marked"),
        "filtering.marked_ratio": _ratio(g(mark, "marked"), g(mark, "scanned")),
        "filtering.build_passed_function.self_s": g("filtering.build_passed_function", "self_s"),
        "csvio.read_csv.self_s": g(read, "self_s"),
        "csvio.read_csv.rows": g(read, "rows"),
        "csvio.read_csv.bytes": g(read, "bytes"),
        "csvio.write_csv.self_s": g(write, "self_s"),
        "csvio.write_csv.rows": g(write, "rows"),
        "csvio.write_csv.bytes": g(write, "bytes"),
        "csvio.write_csv.files": g(write, "files"),
        "svgplot.render_svg.self_s": g(svg, "self_s"),
        "svgplot.render_svg.points": g(svg, "points"),
        "svgplot.render_svg.bytes": g(svg, "bytes"),
        "cli.main.self_s": g("cli.main", "self_s"),
    }


def median_metrics(per_call: list[dict[str, float]]) -> dict[str, float]:
    """Metric-wise median over the traced entry calls; a value that every
    call agrees on, such as a count, is kept as it is."""
    out = {}
    for key in per_call[0]:
        values = [m[key] for m in per_call]
        out[key] = values[0] if len(set(values)) == 1 else statistics.median(values)
    return out
