"""The library's published names: each module's __all__, and the names the
benchmark in perfbench/ reaches from outside the package.

The benchmark pins library names: its validator reads conditioning scales
through the *_scaled functions, and its tracer reads counts by function
name, where a name that no longer exists reads as 0 calls instead of
failing.
"""

import ast
import importlib
import inspect
import pathlib

import pytest

PERFBENCH = pathlib.Path(__file__).parent.parent / "perfbench"
MODULES = ("cli", "eulerian", "families", "intpoly", "newton", "scalars",
           "suites", "theta")


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"qelliptic.{name}")
    assert module.__all__
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def _validator_names() -> set[tuple[str, str]]:
    """(module, attribute) for each ``m.name`` in validate.py whose m is a
    library module: ``_module("m")`` itself, or a variable bound to it and
    named after it."""
    tree = ast.parse((PERFBENCH / "validate.py").read_text())
    names = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute):
            continue
        value = node.value
        if isinstance(value, ast.Call) and getattr(value.func, "id", None) == "_module":
            names.add((value.args[0].value, node.attr))
        elif isinstance(value, ast.Name) and value.id in MODULES:
            names.add((value.id, node.attr))
    return names


def test_benchmark_reaches_only_existing_names(monkeypatch):
    validator = _validator_names()
    assert ("newton", "h_explicit_scaled") in validator
    for module, attr in validator:
        assert hasattr(importlib.import_module(f"qelliptic.{module}"), attr), (module, attr)

    monkeypatch.syspath_prepend(str(PERFBENCH))
    layertrace = importlib.import_module("layertrace")
    tracer = layertrace.Tracer().install()
    tracer.uninstall()
    # string constants of the form layer.name that are not metric keys
    # name traced functions
    metrics = set(layertrace.layer_metrics(tracer, 0, 0))
    reached = {
        node.value for node in ast.walk(ast.parse(inspect.getsource(layertrace)))
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
        and "." in node.value and node.value.split(".")[0] in layertrace.LAYERS
        and not node.value.endswith(".") and node.value not in metrics
    }
    assert layertrace.ROWS in reached
    assert reached - set(tracer.names) == set()
    scalars = importlib.import_module("qelliptic.scalars")
    for cls, ops in layertrace.OPERATORS.items():
        assert all(op in vars(getattr(scalars, cls)) for op in ops), cls
