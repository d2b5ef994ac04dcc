"""Every name the benchmark takes from hystfit must exist in it.

``bench/tracing.py`` replaces hystfit functions and methods by name, and
``bench/run.py``, ``bench/workloads.py`` and ``bench/inputs.py`` call the
package as ``hf.<name>``; a name dropped from the package would break only
the benchmark run. The names are read from the files' source, so nothing
under ``bench/`` is imported or run.
"""

import ast
import functools
import importlib
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"
TRACING = BENCH / "tracing.py"


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


def _hf_names():
    """The dotted names after ``hf.`` (or ``self.hf.``) in the benchmark's
    run, workloads and inputs files, sub-chains included."""
    names = set()
    for name in ("run.py", "workloads.py", "inputs.py"):
        for node in ast.walk(ast.parse((BENCH / name).read_text())):
            parts = []
            while isinstance(node, ast.Attribute) and node.attr != "hf":
                parts.append(node.attr)
                node = node.value
            if parts and (isinstance(node, ast.Attribute) or getattr(node, "id", None) == "hf"):
                names.add(".".join(reversed(parts)))
    return sorted(names)


HF_NAMES = _hf_names()


def test_the_benchmark_names_are_found():
    assert {"egpi_eval", "gpi_eval", "predict", "build_model", "fileio.load_model",
            "cli.main"} <= set(HF_NAMES)


@pytest.mark.parametrize("name", HF_NAMES)
def test_benchmark_name_resolves(name):
    # bench/run.py imports hystfit.cli and hystfit.fileio, which binds them on hf
    hf = importlib.import_module("hystfit")
    importlib.import_module("hystfit.cli")
    importlib.import_module("hystfit.fileio")
    assert functools.reduce(getattr, name.split("."), hf) is not None
