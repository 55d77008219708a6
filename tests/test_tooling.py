"""Checks on the test suites themselves.

A ``hypothesis`` test that also carries ``pytest.mark.filterwarnings("error")``
turns its own failure into a pytest ``INTERNALERROR`` that ends the whole
session: hypothesis's report hook meets a DeprecationWarning, which the mark
makes an error. Property tests rely on the ``pyproject.toml`` filters instead.

The package's public names are pinned here, so a change that grows or
shrinks the surface has to edit the pin on purpose.
"""

import ast
import os

import fastimd

PUBLIC_NAMES = [
    "CubicSpline", "DecompositionResult", "EXTENSION_KINDS", "Extrema", "Extremum",
    "FilterCriteria", "FilterPass", "FilterResult", "ImfReport", "MarkedList",
    "ModeComponent", "RefinementConfig", "TimeSeries", "build_passed_function",
    "build_spline", "decompose", "differentiate", "extend", "extract_mode",
    "filter_series", "find_extrema", "imf_report", "mark_extrema", "median_points",
    "random_walk", "read_csv", "render_svg", "riding_wave", "sinusoid", "synth",
    "two_cosine", "write_csv",
]

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SUITES = ("tests", "perfbench")


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
