"""Every name the benchmark takes from the package must exist in it.

``perfbench/tracing.py`` rebinds each name in ``FUNCTIONS`` by ``getattr``
(or, for ``Class.method``, through the class ``__dict__``), so a rename in
``src/`` that drops one of them breaks ``run.py --trace 1``.  The workloads
and oracles call ``sw.<name>`` (``import schwarzian as sw``) and
``jsonio.<name>``; a public name dropped from ``src/`` breaks those runs.
"""

import importlib
import importlib.util
import re
from pathlib import Path

import pytest

_BENCH = Path(__file__).resolve().parents[1] / "perfbench"
_TRACING = _BENCH / "tracing.py"


def _traced_functions():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.FUNCTIONS


def _referenced_names():
    names = set()
    for path in (_BENCH / "workloads.py", _BENCH / "oracles.py"):
        names.update(re.findall(r"\b((?:sw|jsonio)\.[A-Za-z_][\w.]*\w)", path.read_text()))
    return sorted(names)


@pytest.mark.parametrize("name", _traced_functions())
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
    prefix, *attrs = name.split(".")
    obj = importlib.import_module("schwarzian" if prefix == "sw" else "schwarzian.jsonio")
    for attr in attrs:
        obj = getattr(obj, attr)
