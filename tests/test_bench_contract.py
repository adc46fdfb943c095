"""Every name the benchmark takes from the package must exist in it.

``perfbench/tracing.py`` rebinds each name in ``FUNCTIONS`` by ``getattr``
(or, for ``Class.method``, through the class ``__dict__``), so a rename in
``src/`` that drops one of them breaks ``run.py --trace 1``.  The workloads
and oracles call ``sw.<name>`` (``import schwarzian as sw``) and
``jsonio.<name>``; a public name dropped from ``src/``, or a keyword
dropped from its signature, breaks those runs.
The tracer also reads fields of the reports it sees, and the cli workload
parses the solver's JSON.
"""

import ast
import importlib
import importlib.util
import inspect
import json
import re
from pathlib import Path

import pytest

from schwarzian import J, Poly, jsonio, reconstruct_rational, solve_fiber

_BENCH = Path(__file__).resolve().parents[1] / "perfbench"
_TRACING = _BENCH / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def _referenced_names():
    names = set()
    for path in (_BENCH / "workloads.py", _BENCH / "oracles.py"):
        names.update(re.findall(r"\b((?:sw|jsonio)\.[A-Za-z_][\w.]*\w)", path.read_text()))
    return sorted(names)


def _resolve(name):
    prefix, *attrs = name.split(".")
    obj = importlib.import_module("schwarzian" if prefix == "sw" else "schwarzian.jsonio")
    for attr in attrs:
        obj = getattr(obj, attr)
    return obj


def _keyword_calls():
    """(sw.X or jsonio.X, keyword) for every keyword argument the workloads
    and oracles pass to a package call."""
    calls = set()
    for path in (_BENCH / "workloads.py", _BENCH / "oracles.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                name = ast.unparse(node.func)
                if re.fullmatch(r"(sw|jsonio)\.[\w.]+", name):
                    calls.update((name, kw.arg) for kw in node.keywords if kw.arg)
    return sorted(calls)


@pytest.mark.parametrize("name", _tracing().FUNCTIONS)
def test_traced_function_resolves(name):
    mod_name, attr = name.split(".", 1)
    module = importlib.import_module(f"schwarzian.{mod_name}")
    if "." in attr:
        cls_name, meth = attr.split(".")
        assert meth in vars(getattr(module, cls_name))
    else:
        assert callable(getattr(module, attr))


def test_benchmark_finds_names():
    assert len(_referenced_names()) >= 20


@pytest.mark.parametrize("name", _referenced_names())
def test_referenced_name_resolves(name):
    _resolve(name)


def test_benchmark_finds_keyword_calls():
    assert ("sw.RationalMap", "reduce") in _keyword_calls()


@pytest.mark.parametrize("name, keyword", _keyword_calls())
def test_benchmark_keyword_is_a_parameter(name, keyword):
    params = inspect.signature(_resolve(name)).parameters
    assert keyword in params or any(
        p.kind is inspect.Parameter.VAR_KEYWORD for p in params.values())


def test_fiber_counters_read_the_report():
    tracing = _tracing()
    counts = dict.fromkeys(tracing.COUNTERS, 0)
    report = solve_fiber(Poly([-1, 0, 0, 0, 1]), attempts=8)
    tracing._AFTER["fiber.solve_fiber"]((), {}, report, counts)
    assert counts["fiber.starts"] == 8
    assert counts["fiber.solutions"] == len(report.solutions) == 2


def test_fiber_report_is_strict_json_over_the_tetrahedron():
    # the Jacobian is singular at the one solution here
    _, report = reconstruct_rational([0, 1, J, J * J], attempts=8)
    assert len(report.solutions) == 1
    json.dumps(jsonio.encode_fiber_report(report), allow_nan=False)
