"""Every name the traced benchmark wraps must exist in hystfit.

``bench/tracing.py`` replaces hystfit functions and methods by name; a
name dropped from the package would break only the traced benchmark run.
The tables are read from the file's source, so nothing under ``bench/``
is imported or run.
"""

import ast
import importlib
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _table(name):
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == [name]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"{TRACING} defines no {name} table")


@pytest.mark.parametrize("module, attr, span", _table("FUNCTIONS"))
def test_traced_function_exists(module, attr, span):
    assert callable(getattr(importlib.import_module(module), attr, None))


@pytest.mark.parametrize("module, cls, attr, span", _table("METHODS"))
def test_traced_method_exists(module, cls, attr, span):
    klass = getattr(importlib.import_module(module), cls, None)
    assert klass is not None and callable(getattr(klass, attr, None))
