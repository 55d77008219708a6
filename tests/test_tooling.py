"""Checks on the test suites themselves.

A ``hypothesis`` test that also carries ``pytest.mark.filterwarnings("error")``
turns its own failure into a pytest ``INTERNALERROR`` that ends the whole
session: hypothesis's report hook meets a DeprecationWarning, which the mark
makes an error. Property tests rely on the ``pyproject.toml`` filters instead.

The package's public names and the command line's flags are pinned here,
so a change that grows or shrinks either surface has to edit the pin on
purpose. The benchmark's output check must fail a decomposition that returns
a wrong component, rather than only one that raises. Every public record
type must compare with ``==`` and hash: a dataclass that compares array
fields by value raises on both. The library raises only the three error
types ``cli.main`` maps to exit codes, so no other reaches a user as a
traceback.
"""

import argparse
import ast
import dataclasses
import os

import fastimd
from fastimd.cli import build_parser

PUBLIC_NAMES = [
    "DecompositionResult", "EXTENSION_KINDS", "Extrema", "Extremum", "FilterCriteria",
    "FilterPass", "FilterResult", "ImfReport", "ModeComponent", "RefinementConfig",
    "TimeSeries", "build_spline", "decompose", "extend", "extract_mode", "filter_series",
    "find_extrema", "imf_report", "median_points", "random_walk", "read_csv", "render_svg",
    "riding_wave", "sinusoid", "synth", "two_cosine", "write_csv",
]

CLI_FLAGS = {
    "decompose": [
        "--amplitude", "--delta-tol", "--extension", "--help", "--init", "--input",
        "--max-iters", "--max-modes", "--output-dir", "--period", "--phase", "--plot",
        "--seed", "--span", "--step", "--synth", "-h",
    ],
    "filter": [
        "--amp-floor", "--amplitude", "--block-jump", "--delta-tol", "--extension", "--help",
        "--input", "--max-iters", "--max-passes", "--output-dir", "--period", "--phase",
        "--plot", "--seed", "--span", "--step", "--synth", "-h",
    ],
}

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SUITES = ("tests", "perfbench")

# cli.main maps these to exit codes 1, 3 and 2
EXIT_CODE_ERRORS = {"ValueError", "FloatingPointError", "OSError"}
# argparse's own protocol in cli.py, and the exit status the entry points pass on
PLUMBING = {"cli.py": {"SystemExit", "argparse.ArgumentTypeError"},
            "__main__.py": {"SystemExit"}}


def _dotted(node) -> str:
    """``a.b.c`` for a name or attribute chain, else ""."""
    if isinstance(node, ast.Call):
        node = node.func
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return ""


def _errors_on_deprecation(mark) -> bool:
    """True for ``filterwarnings("error")`` and filters that make a
    DeprecationWarning an error."""
    if not (isinstance(mark, ast.Call) and _dotted(mark).endswith("mark.filterwarnings")):
        return False
    for arg in mark.args:
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
            action, _, rest = arg.value.partition(":")
            category = rest.lstrip(":").partition(":")[0]
            if action.strip() == "error" and category.strip() in (
                    "", "Warning", "DeprecationWarning"):
                return True
    return False


def _marks(node) -> list:
    """The marks on a module's ``pytestmark``, one or a list."""
    if isinstance(node, (ast.List, ast.Tuple)):
        return list(node.elts)
    return [node]


def given_with_error_filter(source: str) -> list[str]:
    """Names of the tests in ``source`` that are both ``@given`` and under a
    filter that makes a DeprecationWarning an error."""
    tree = ast.parse(source)
    module_marks = [mark for node in tree.body if isinstance(node, ast.Assign)
                    and any(isinstance(t, ast.Name) and t.id == "pytestmark" for t in node.targets)
                    for mark in _marks(node.value)]
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        names = [_dotted(d) for d in node.decorator_list]
        if not any(name == "given" or name.endswith(".given") for name in names):
            continue
        if any(_errors_on_deprecation(mark) for mark in node.decorator_list + module_marks):
            found.append(node.name)
    return found


def test_no_property_test_turns_warnings_into_errors():
    found = []
    for suite in SUITES:
        for dirpath, _, filenames in os.walk(os.path.join(ROOT, suite)):
            for name in sorted(filenames):
                if name.endswith(".py"):
                    path = os.path.join(dirpath, name)
                    with open(path, encoding="utf-8") as fh:
                        found += [f"{os.path.relpath(path, ROOT)}::{test}"
                                  for test in given_with_error_filter(fh.read())]
    assert found == []


def test_the_check_finds_the_combination():
    source = '''
import pytest
from hypothesis import given, strategies as st
import hypothesis

@pytest.mark.filterwarnings("error")
@given(st.integers())
def test_marked(x): pass

@hypothesis.given(st.integers())
@pytest.mark.filterwarnings("error::DeprecationWarning")
def test_dotted(x): pass

@given(st.integers())
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_runtime_only(x): pass

@pytest.mark.filterwarnings("error")
def test_plain(): pass

@given(st.integers())
def test_unmarked(x): pass
'''
    assert given_with_error_filter(source) == ["test_marked", "test_dotted"]
    module = 'import pytest\npytestmark = [pytest.mark.filterwarnings("error")]\n'
    assert given_with_error_filter(module + source) == [
        "test_marked", "test_dotted", "test_runtime_only", "test_unmarked"]


def test_the_public_surface_is_pinned():
    assert sorted(fastimd.__all__) == PUBLIC_NAMES
    assert [name for name in PUBLIC_NAMES if not hasattr(fastimd, name)] == []


def test_the_cli_flags_are_pinned():
    (commands,) = [action for action in build_parser()._actions
                   if isinstance(action, argparse._SubParsersAction)]
    flags = {name: sorted(flag for action in sub._actions for flag in action.option_strings)
             for name, sub in commands.choices.items()}
    assert flags == CLI_FLAGS


def raises_outside(source: str, allowed: set) -> list[str]:
    """``line: type`` for every ``raise`` in ``source`` of a type not in
    ``allowed``; a bare re-raise passes."""
    return [f"{node.lineno}: {_dotted(node.exc)}" for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Raise) and node.exc is not None
            and _dotted(node.exc) not in allowed]


def test_the_library_raises_only_what_main_maps_to_exit_codes():
    package = os.path.join(ROOT, "src", "fastimd")
    found = []
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), encoding="utf-8") as fh:
                allowed = EXIT_CODE_ERRORS | PLUMBING.get(name, set())
                found += [f"{name}:{where}" for where in raises_outside(fh.read(), allowed)]
    assert found == []


def test_the_raise_check_finds_other_types():
    source = """
try:
    pass
except KeyError as exc:
    raise
    raise ValueError("bad") from exc
raise FloatingPointError
raise TypeError("bad")
raise np.linalg.LinAlgError("bad")
"""
    assert raises_outside(source, EXIT_CODE_ERRORS) == ["8: TypeError", "9: np.linalg.LinAlgError"]


def test_benchmark_check_fails_a_wrong_component(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(os.path.join(ROOT, "perfbench"))
    import run

    wl, cases, _ = run.setup("decompose_walk", 1, str(tmp_path), n=2000)
    real = fastimd.decompose

    def shifted(data, *args, **kwargs):
        # moving the first residue by one moves the derived first component
        # by minus one, so the outputs no longer sum back to the input
        result = real(data, *args, **kwargs)
        mode = result.modes[0]
        bad = dataclasses.replace(mode, residue=mode.residue.with_values(mode.residue.values + 1.0))
        return dataclasses.replace(result, modes=(bad,) + result.modes[1:])

    monkeypatch.setattr(fastimd, "decompose", shifted)
    result = run.measure(wl, cases, 0.0)
    assert result["attempted"] >= 1
    assert len(result["failures"]) == result["attempted"]
    assert all(f["error"].startswith("outputs sum back to the input")
               for f in result["failures"])


def _records(walk) -> list:
    """One instance of every record type the public calls return, all
    computed from ``walk``."""
    criteria = fastimd.FilterCriteria(jump_time_blocks=((0.0, 20.0),))
    result = fastimd.decompose(walk)
    imf = result.modes[0].imf
    extrema = fastimd.find_extrema(imf)
    filtered = fastimd.filter_series(walk, criteria)
    return [walk, extrema, extrema[0], fastimd.imf_report(imf), result.modes[0], result,
            filtered.diagnostics[0], filtered, fastimd.RefinementConfig(), criteria]


def test_every_record_type_compares_and_hashes():
    records = _records(fastimd.random_walk(1, span=199))
    twins = _records(fastimd.random_walk(1, span=199))
    public = {name for name in PUBLIC_NAMES
              if dataclasses.is_dataclass(getattr(fastimd, name))}
    assert sorted(type(r).__name__ for r in records) == sorted(public)
    for record, twin in zip(records, twins):
        # series and extrema arrays compare by identity, so a record that
        # holds one is equal only to a record holding the same one
        assert isinstance(record == twin, bool)
        assert isinstance(hash(record), int)
    assert records[0] != twins[0] and records[-1] == twins[-1]
