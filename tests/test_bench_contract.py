"""Every function the traced benchmark run wraps must exist in the package.

``perfbench/tracing.py`` rebinds each name in ``FUNCTIONS`` by ``getattr``
(or, for ``Class.method``, through the class ``__dict__``), so a rename in
``src/`` that drops one of them breaks ``run.py --trace 1``.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

_TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _traced_functions():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.FUNCTIONS


@pytest.mark.parametrize("name", _traced_functions())
def test_traced_function_resolves(name):
    mod_name, attr = name.split(".", 1)
    module = importlib.import_module(f"schwarzian.{mod_name}")
    if "." in attr:
        cls_name, meth = attr.split(".")
        assert meth in vars(getattr(module, cls_name))
    else:
        assert callable(getattr(module, attr))
